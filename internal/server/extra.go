package server

// Extended endpoints: pairwise queries, similarity joins, structure
// reports, and batched edge updates. These sit on the same snapshot
// discipline as the core handlers: every read — including the analysis
// endpoints /join/topk and /components — runs lock-free against the
// published snapshot, updates go through the one write path (applyBatch),
// and the Querier invalidates itself via the snapshot version. A join or
// component scan therefore never stalls an edge update (and vice versa);
// it simply reports the consistent state it pinned at the start.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"probesim/internal/core"
	"probesim/internal/graph"
	"probesim/internal/simjoin"
)

// joinNodeLimit bounds the graph size for which the O(n·query) join
// endpoints are allowed; beyond this a join would monopolize the service.
const joinNodeLimit = 20000

func (s *Server) registerExtra() {
	s.handle("/pair", classQuery, s.handlePair)
	s.handle("/join/topk", classJoin, s.handleJoinTopK)
	s.handle("/components", classJoin, s.handleComponents)
	s.handle("/edges/batch", classWrite, s.handleEdgeBatch)
	s.handle("/progressive-topk", classQuery, s.handleProgressiveTopK)
}

// handleProgressiveTopK answers a top-k query with the any-time algorithm
// and reports its stopping statistics, so clients can see what early
// stopping saved. Progressive queries bypass the Querier cache: their
// cost depends on the query's separability, not on repetition.
func (s *Server) handleProgressiveTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	u, err := s.nodeParam(r, "u")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k < 1 || k > 10000 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parameter k must be in [1, 10000]"))
			return
		}
	}
	res, stats, err := core.TopKProgressive(r.Context(), s.ex.Snapshot(), u, k, s.opt)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	out := make([]scoredNodeJSON, len(res))
	for i, r := range res {
		out[i] = scoredNodeJSON{Node: r.Node, Score: r.Score}
	}
	body := map[string]any{
		"query": u, "results": out,
		"walks": stats.Walks, "budgetWalks": stats.BudgetWalks,
		"rounds": stats.Rounds, "radius": stats.Radius,
		"separated": stats.Separated,
	}
	addTrace(r, body)
	writeJSON(w, http.StatusOK, body)
}

// handlePair answers s(u, v) by looking v up in u's cached single-source
// answer, so repeated pair probes against one node cost a single query.
func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	u, err := s.nodeParam(r, "u")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := s.nodeParam(r, "v")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ranked, err := s.singleSourceScores(w, r, u)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	body := map[string]any{
		"u": u, "v": v, "score": ranked.Score(v),
	}
	addTrace(r, body)
	writeJSON(w, http.StatusOK, body)
}

// handleJoinTopK runs a global top-k similarity join. This is n
// single-source queries, so it is limited to graphs under joinNodeLimit
// nodes and k <= 1000.
func (s *Server) handleJoinTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		var err error
		k, err = strconv.Atoi(raw)
		if err != nil || k < 1 || k > 1000 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parameter k must be in [1, 1000]"))
			return
		}
	}
	// The join runs n single-source queries against the published snapshot:
	// a consistent point-in-time view, pinned for the whole join, that
	// never blocks (and is never blocked by) edge updates. Joins DO
	// serialize among themselves (the classJoin semaphore in the admission
	// middleware) — each one is an O(n·query) fan-out, so unbounded
	// concurrent joins would starve the rest of the service. The request
	// context bounds the whole fan-out: an expired deadline stops every
	// per-source query at its next kernel checkpoint.
	snap := s.ex.Snapshot()
	if n := snap.NumNodes(); n > joinNodeLimit {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("join needs one query per node; graph has %d nodes, limit %d", n, joinNodeLimit))
		return
	}
	// Over a worker fleet the join binds to the request like any query:
	// one fetch under its deadline, and a worker failure is a 502 rather
	// than a join over the nodes that stayed reachable.
	view, err := core.BindView(r.Context(), snap)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	pairs, err := simjoin.TopKJoin(r.Context(), view, k, simjoin.Options{Query: s.opt})
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	type pairJSON struct {
		U     graph.NodeID `json:"u"`
		V     graph.NodeID `json:"v"`
		Score float64      `json:"score"`
	}
	out := make([]pairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = pairJSON{U: p.U, V: p.V, Score: p.Score}
	}
	writeJSON(w, http.StatusOK, map[string]any{"k": k, "pairs": out})
}

// handleComponents reports the graph's component structure (strong and
// weak counts plus the largest sizes), the numbers operators check after
// bulk loads.
func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	// Component scans read the published snapshot through the same
	// devirtualized adjacency path the query kernels use: no lock, no
	// interference with the write path — and, through the Ctx variants,
	// under the request's deadline: the traversal checkpoints the budget
	// meter mid-scan, so a huge snapshot cannot pin the analysis slot past
	// its timeout. Over a worker fleet the scan binds to the request like
	// any query, so a worker failure fails the fetch before the scan
	// starts and surfaces as 502 instead of silently under-counting
	// components.
	view, err := core.BindView(r.Context(), s.ex.Snapshot())
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	sccIDs, sccCount, err := graph.StronglyConnectedCtx(r.Context(), view)
	var wccIDs []int32
	var wccCount int
	if err == nil {
		wccIDs, wccCount, err = graph.WeaklyConnectedCtx(r.Context(), view)
	}
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stronglyConnected": sccCount,
		"largestSCC":        largestComponent(sccIDs, sccCount),
		"weaklyConnected":   wccCount,
		"largestWCC":        largestComponent(wccIDs, wccCount),
	})
}

func largestComponent(ids []int32, count int) int {
	if count == 0 {
		return 0
	}
	sizes := make([]int, count)
	for _, id := range ids {
		sizes[id]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}

// batchOp is one update in an /edges/batch request body.
type batchOp struct {
	Op string       `json:"op"` // "add" or "remove"
	U  graph.NodeID `json:"u"`
	V  graph.NodeID `json:"v"`
}

// handleEdgeBatch applies a JSON array of edge updates atomically as one
// batch (see applyBatch): either every op applies, or the batch is
// rolled back and the failing op is reported. Dynamic workloads stream
// churn through this endpoint instead of paying one round trip per edge.
func (s *Server) handleEdgeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var body []batchOp
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("body: %v", err))
		return
	}
	if len(body) > 100000 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d ops exceeds limit", len(body)))
		return
	}
	ops := make([]graph.EdgeOp, len(body))
	for i, op := range body {
		switch op.Op {
		case "add":
		case "remove":
			ops[i].Remove = true
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown op %q", i, op.Op))
			return
		}
		ops[i].U, ops[i].V = op.U, op.V
	}
	snap, err := s.applyBatch(ops)
	if err != nil {
		s.writeApplyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": len(ops), "edges": snap.NumEdges(), "version": snap.Version(),
	})
}
