// Package probesim is a from-scratch Go implementation of ProbeSim (Liu,
// Zheng, He, Wei, Xiao, Zheng, Lu: "ProbeSim: Scalable Single-Source and
// Top-k SimRank Computations on Dynamic Graphs", PVLDB 11(1), 2017):
// index-free approximate single-source and top-k SimRank queries with a
// provable absolute-error guarantee.
//
// # Quick start
//
//	g := probesim.NewGraph(4)
//	g.AddEdge(0, 1) // directed edge 0 -> 1
//	g.AddEdge(0, 2)
//	g.AddEdge(1, 3)
//	g.AddEdge(2, 3)
//
//	ctx := context.Background()
//
//	// All similarities to node 1, each within 0.05 of the truth w.p. 99%.
//	scores, err := probesim.SingleSource(ctx, g, 1, probesim.Options{EpsA: 0.05})
//
//	// The 10 most similar nodes to node 1.
//	top, err := probesim.TopK(ctx, g, 1, 10, probesim.Options{})
//
// # Deadlines and budgets
//
// Every query takes a context.Context and honors Options.Budget: pass a
// context with a deadline (or set Budget.Timeout / MaxWalks /
// MaxProbeWork) and the query stops at its next amortized checkpoint,
// returning its partial estimate together with an error that unwraps to
// context.DeadlineExceeded, context.Canceled or ErrBudget. Un-budgeted
// queries on context.Background pay only a nil-check per checkpoint.
//
// # Guarantees
//
// With Options{EpsA: εa, Delta: δ}, every returned similarity satisfies
// |s̃(u,v) − s(u,v)| <= εa simultaneously for all v with probability at
// least 1 − δ (Theorems 1-3 of the paper). Queries run in
// O(n/εa²·log(n/δ)) expected time. Their working memory is pooled
// between calls, but no answer depends on it: a query returns the same
// bits on a fresh process as after any number of earlier queries.
//
// # Dynamic graphs
//
// Because there is no index, graph updates are just adjacency updates:
// call (*Graph).AddEdge / RemoveEdge / AddNode between queries and the next
// query reflects the new graph immediately. This is the paper's headline
// advantage over index-based methods (SLING, TSF), whose structures must be
// rebuilt or patched on every update.
//
// # Modes
//
// Options.Mode selects the execution strategy; ModeAuto (the default) is
// the paper's full configuration with pruning (§4.1), batched walk probing
// (§4.2) and the hybrid deterministic/randomized switch (§4.3-4.4). The
// other modes exist for ablation studies and reproduce the paper's
// individual algorithm variants.
//
// # Beyond the paper
//
// ThresholdJoin and TopKJoin answer "find all similar pairs" with the same
// εa guarantee and no join index; TopKProgressive answers top-k queries
// any-time, stopping as soon as the ranking provably settles; NewQuerier
// adds a version-keyed result cache for read-heavy workloads (the server
// keeps the same cache per node instead, dropping only the answers a
// write touched). All three keep the zero-maintenance property that
// motivates the paper.
package probesim

import (
	"context"
	"io"

	"probesim/internal/core"
	"probesim/internal/graph"
)

// Graph is a directed multigraph with dynamic edge updates. See NewGraph,
// LoadEdgeList and ReadBinaryGraph for constructors.
type Graph = graph.Graph

// NodeID identifies a node; nodes are dense integers in [0, NumNodes).
type NodeID = graph.NodeID

// Snapshot is an immutable CSR copy of a Graph: flat adjacency arrays,
// lock-free concurrent reads, bit-identical query results. Build one with
// (*Graph).Snapshot(); both representations satisfy GraphView.
type Snapshot = graph.Snapshot

// GraphView is the minimal read-only adjacency surface queries need,
// satisfied by both *Graph and *Snapshot.
type GraphView = graph.View

// Stats summarizes a graph's degree structure.
type Stats = graph.Stats

// Options configures a query; the zero value uses the paper's defaults
// (c = 0.6, εa = 0.1, δ = 0.01, ModeAuto, all cores, no budget).
type Options = core.Options

// Budget bounds one query's resource consumption: wall clock, √c-walk
// trials, probe edge traversals. The zero value is unbounded. A query
// stopped by its budget returns its partial estimate alongside an error.
type Budget = core.Budget

// ErrBudget is returned (wrapped) when a query exhausts an explicit walk
// or probe-work budget; deadline and cancellation stops unwrap to
// context.DeadlineExceeded and context.Canceled. Test with errors.Is.
var ErrBudget = core.ErrBudget

// Mode selects a ProbeSim execution strategy.
type Mode = core.Mode

// Execution strategies (see the paper sections referenced on each).
const (
	// ModeAuto: pruning + batch + hybrid (the paper's full configuration).
	ModeAuto = core.ModeAuto
	// ModeBasic: Algorithm 1 with deterministic probes, no optimizations.
	ModeBasic = core.ModeBasic
	// ModePruned: ModeBasic plus pruning rules 1 and 2 (§4.1).
	ModePruned = core.ModePruned
	// ModeBatch: ModePruned plus the reverse-reachability walk tree (§4.2).
	ModeBatch = core.ModeBatch
	// ModeRandomized: Algorithm 1 with randomized probes (§4.3).
	ModeRandomized = core.ModeRandomized
	// ModeHybrid: batch tree with the §4.4 deterministic/randomized switch.
	ModeHybrid = core.ModeHybrid
)

// ScoredNode is one entry of a top-k answer.
type ScoredNode = core.ScoredNode

// Plan is the resolved execution plan of a query (trial count, error-budget
// split, walk truncation); useful for logging and capacity planning.
type Plan = core.Plan

// NewGraph returns a graph with n nodes and no edges.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewGraphFromEdges builds a graph with n nodes and the given directed
// edges.
func NewGraphFromEdges(n int, edges [][2]NodeID) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// LoadEdgeList parses a whitespace-separated edge list ("u v" per line, #
// comments allowed, sparse ids remapped densely). Set undirected to insert
// both directions per line.
func LoadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	return graph.LoadEdgeList(r, undirected)
}

// ReadBinaryGraph loads a graph written by (*Graph).WriteBinary.
func ReadBinaryGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// SingleSource answers an approximate single-source SimRank query: it
// returns s̃(u, v) for every node v (result[u] = 1), with every entry
// within opt.EpsA of the exact similarity with probability 1 − opt.Delta.
// ctx (plus opt.Budget) bounds the query; a stopped query returns its
// partial estimate together with a non-nil error.
func SingleSource(ctx context.Context, g *Graph, u NodeID, opt Options) ([]float64, error) {
	return core.SingleSource(ctx, g, u, opt)
}

// TopK answers an approximate top-k SimRank query: the k nodes most
// similar to u (excluding u), in descending score order.
func TopK(ctx context.Context, g *Graph, u NodeID, k int, opt Options) ([]ScoredNode, error) {
	return core.TopK(ctx, g, u, k, opt)
}

// ProgressiveStats reports how a TopKProgressive query stopped: walks
// used versus the static budget, rounds, the final confidence radius, and
// whether it stopped on rank separation.
type ProgressiveStats = core.ProgressiveStats

// TopKProgressive answers the same approximate top-k query as TopK but
// adaptively: walks run in doubling rounds and the query stops as soon as
// the k-th and (k+1)-th candidates separate by twice the confidence
// radius, often long before the static εa-driven walk budget. The
// guarantee of Definition 2 is preserved; Stats reports the saving.
func TopKProgressive(ctx context.Context, g *Graph, u NodeID, k int, opt Options) ([]ScoredNode, ProgressiveStats, error) {
	return core.TopKProgressive(ctx, g, u, k, opt)
}

// PlanFor reports the execution plan a query with these options would use
// on a graph with n nodes.
func PlanFor(opt Options, n int) (Plan, error) { return core.PlanFor(opt, n) }

// Querier memoizes single-source results. A Querier from NewQuerier is
// keyed by the graph's version counter: repeated queries on an unchanged
// graph are free, and any mutation invalidates the whole cache
// automatically. (The HTTP server's Querier instead follows its shard
// store's applied-batch stream and drops only the answers whose read sets
// a write touched.) This implements the "lightweight indexing" direction
// sketched in the paper's conclusion while keeping ProbeSim's
// zero-maintenance property.
type Querier = core.Querier

// NewQuerier wraps g with a result cache holding up to capacity
// single-source answers (LRU eviction). Each entry keeps only the
// answer's non-zero scores, 16 bytes apiece, so an entry costs far less
// than the 8n-byte vector Querier.SingleSource rebuilds from it.
func NewQuerier(g *Graph, opt Options, capacity int) *Querier {
	return core.NewQuerier(g, opt, capacity)
}

// Executor is the serving-path query runner: it publishes immutable CSR
// snapshots of a dynamic graph behind an atomic pointer and answers
// queries lock-free against them with pooled per-query scratch, so
// steady-state queries allocate almost nothing beyond their result. Call
// Refresh after mutating the graph to publish the changes.
type Executor = core.Executor

// NewExecutor builds an Executor over g with the given default query
// options, publishing an initial snapshot.
func NewExecutor(g *Graph, opt Options) *Executor {
	return core.NewExecutor(g, opt)
}

// NewQuerierOn wraps an Executor with a result cache (LRU, single-flight
// de-duplication of concurrent misses). Queries never touch the mutable
// graph; mutators must call Executor.Refresh to publish changes.
func NewQuerierOn(ex *Executor, capacity int) *Querier {
	return core.NewQuerierOn(ex, capacity)
}
