package graph

// View is the minimal read-only adjacency surface the query kernels (walk
// generation, PROBE expansion, ProbeSim estimation) need. It is satisfied
// by both the mutable *Graph and the immutable *Snapshot, so every
// algorithm can run against either representation: slice-of-slice
// adjacency while experimenting, CSR snapshots when serving.
type View interface {
	NumNodes() int
	NumEdges() int64
	InNeighbors(v NodeID) []NodeID
	OutNeighbors(u NodeID) []NodeID
	InDegree(v NodeID) int
	OutDegree(u NodeID) int
}

var (
	_ View = (*Graph)(nil)
	_ View = (*Snapshot)(nil)
)

// VersionedView is a View that carries a mutation-version counter, the
// handle the serving stack (core.Executor, core.Querier, internal/server)
// uses for staleness detection and cache invalidation. Both the mutable
// *Graph and every published snapshot type (the monolithic *Snapshot, the
// sharded store's composite snapshot) satisfy it.
type VersionedView interface {
	View
	Version() uint64
}

var (
	_ VersionedView = (*Graph)(nil)
	_ VersionedView = (*Snapshot)(nil)
)

// AdjProvider lets a View implemented outside this package (for example
// the sharded snapshot in internal/shard) hand ResolveAdj a devirtualized
// Adj over its own storage instead of falling back to per-edge interface
// dispatch.
type AdjProvider interface {
	ProvideAdj() Adj
}

// CSRShard is one shard's immutable CSR adjacency: the same layout as
// Snapshot, covering only the shard's contiguous node range, indexed by
// LOCAL node index. Destination ids remain global. internal/shard builds
// one per shard and republishes only the shards an edge batch touched.
//
// The hot Adj accessors do not read InOff/OutOff: they go through the
// dense global span arrays of NewShardedAdj (derived lazily from these
// offsets), which keep the sharded access chain as short as the
// monolithic CSR's.
type CSRShard struct {
	InOff  []uint32 // len localNodes+1
	InDst  []NodeID // global ids
	OutOff []uint32
	OutDst []NodeID
}

// Adj is a devirtualized adjacency accessor over a View. Hot loops that
// would otherwise pay an interface call per edge resolve an Adj once per
// kernel invocation; its accessors then compile to plain slice indexing
// for the concrete representations (CSR arrays for *Snapshot,
// slice-of-slice lists for *Graph, per-shard CSR arrays for AdjProvider
// views such as the sharded store's snapshot) and only fall back to
// interface dispatch for foreign View implementations.
//
// An Adj is a point-in-time resolution: like the slices returned by
// InNeighbors, it is invalidated by the next mutation of an underlying
// *Graph. Snapshots are immutable, so their Adj never goes stale.
type Adj struct {
	view View

	// Slice-of-slice path (*Graph).
	inL, outL [][]NodeID

	// CSR path (*Snapshot).
	inOff, outOff []uint32
	inDst, outDst []NodeID

	// Sharded CSR path (internal/shard snapshots): node v's lists live in
	// shards[v>>shardShift]; its in-list is InDst[start:end] where
	// inSpan[v] packs start (high 32 bits) and end (low 32 bits), both
	// local to the shard's dst arrays. The spans are dense GLOBAL arrays,
	// so one independent load yields both offsets (and the degree, by
	// subtraction) — the sharded access chain stays as short as the
	// monolithic CSR's.
	shards     []CSRShard
	inSpan     []uint64
	outSpan    []uint64
	shardShift uint32

	n int
}

// ResolveAdj resolves the concrete adjacency storage behind v.
func ResolveAdj(v View) Adj {
	switch g := v.(type) {
	case *Snapshot:
		return Adj{
			view:  v,
			inOff: g.inOff, inDst: g.inDst,
			outOff: g.outOff, outDst: g.outDst,
			n: g.n,
		}
	case *Graph:
		return Adj{view: v, inL: g.in, outL: g.out, n: len(g.out)}
	case AdjProvider:
		return g.ProvideAdj()
	default:
		return Adj{view: v, n: v.NumNodes()}
	}
}

// EmptyAdj returns an Adj over n nodes with no edges. An AdjProvider
// whose storage could not be fetched (the router's bound view after a
// failed bulk fetch) returns it, so the kernels drain over empty lists
// without touching the failed storage again.
func EmptyAdj(n int) Adj { return Adj{view: emptyView(n), n: n} }

// emptyView is the edgeless View behind EmptyAdj.
type emptyView int

func (e emptyView) NumNodes() int              { return int(e) }
func (emptyView) NumEdges() int64              { return 0 }
func (emptyView) InNeighbors(NodeID) []NodeID  { return nil }
func (emptyView) OutNeighbors(NodeID) []NodeID { return nil }
func (emptyView) InDegree(NodeID) int          { return 0 }
func (emptyView) OutDegree(NodeID) int         { return 0 }

// PackSpan encodes a shard-local [start, end) list span for the dense
// span arrays of the sharded Adj path.
func PackSpan(start, end uint32) uint64 { return uint64(start)<<32 | uint64(end) }

// NewShardedAdj builds the devirtualized accessor over sharded CSR
// storage with a 1<<shift node stride. It is the Adj an AdjProvider in
// internal/shard returns. shards must cover [0, view.NumNodes());
// inSpan/outSpan hold each node's PackSpan-encoded shard-local list
// bounds, dense global arrays of length NumNodes.
func NewShardedAdj(view View, shards []CSRShard, shift uint32, inSpan, outSpan []uint64) Adj {
	return Adj{
		view:       view,
		shards:     shards,
		inSpan:     inSpan,
		outSpan:    outSpan,
		shardShift: shift,
		n:          view.NumNodes(),
	}
}

// NumNodes returns the node count of the resolved view.
func (a *Adj) NumNodes() int { return a.n }

// In returns the in-neighbor list of v (read-only, aliasing the view's
// storage).
func (a *Adj) In(v NodeID) []NodeID {
	if a.inOff != nil {
		return a.inDst[a.inOff[v]:a.inOff[v+1]]
	}
	if a.inL != nil {
		return a.inL[v]
	}
	if a.shards != nil {
		sp := a.inSpan[v]
		return a.shards[uint32(v)>>a.shardShift].InDst[sp>>32 : sp&0xffffffff]
	}
	return a.view.InNeighbors(v)
}

// Out returns the out-neighbor list of u (read-only, aliasing the view's
// storage).
func (a *Adj) Out(u NodeID) []NodeID {
	if a.outOff != nil {
		return a.outDst[a.outOff[u]:a.outOff[u+1]]
	}
	if a.outL != nil {
		return a.outL[u]
	}
	if a.shards != nil {
		sp := a.outSpan[u]
		return a.shards[uint32(u)>>a.shardShift].OutDst[sp>>32 : sp&0xffffffff]
	}
	return a.view.OutNeighbors(u)
}

// InDegree returns |I(v)|.
func (a *Adj) InDegree(v NodeID) int {
	if a.inOff != nil {
		return int(a.inOff[v+1] - a.inOff[v])
	}
	if a.inL != nil {
		return len(a.inL[v])
	}
	if a.inSpan != nil {
		sp := a.inSpan[v]
		return int(uint32(sp) - uint32(sp>>32))
	}
	return a.view.InDegree(v)
}

// OutDegree returns |O(u)|.
func (a *Adj) OutDegree(u NodeID) int {
	if a.outOff != nil {
		return int(a.outOff[u+1] - a.outOff[u])
	}
	if a.outL != nil {
		return len(a.outL[u])
	}
	if a.outSpan != nil {
		sp := a.outSpan[u]
		return int(uint32(sp) - uint32(sp>>32))
	}
	return a.view.OutDegree(u)
}
