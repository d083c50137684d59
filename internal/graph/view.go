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
// A block is self-contained: the sharded Adj reads a node's lists
// straight from its shard's InOff/OutOff, so an unchanged block serves
// every generation that shares it (by reference in process, carried
// across view generations by the router) with no per-generation
// derived state.
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

	// Sharded CSR path (internal/shard snapshots, whether a store
	// published them or a router assembled them from fetched blocks):
	// node v's lists live in shards[v>>shardShift] at local index
	// v&shardMask, and read through that shard's own offsets, so the Adj
	// holds nothing per node and a generation costs nothing beyond its
	// blocks.
	shards     []CSRShard
	shardShift uint32
	shardMask  uint32

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

// EmptyView returns an edgeless View of n nodes: what the router's view
// of a worker fleet reads as to callers outside a query (stats, the
// join's source scan) when its adjacency could not be fetched.
func EmptyView(n int) View { return emptyView(n) }

type emptyView int

func (e emptyView) NumNodes() int              { return int(e) }
func (emptyView) NumEdges() int64              { return 0 }
func (emptyView) InNeighbors(NodeID) []NodeID  { return nil }
func (emptyView) OutNeighbors(NodeID) []NodeID { return nil }
func (emptyView) InDegree(NodeID) int          { return 0 }
func (emptyView) OutDegree(NodeID) int         { return 0 }

// NewShardedAdj builds the devirtualized accessor over sharded CSR
// storage with a 1<<shift node stride: the Adj internal/shard's snapshot
// returns. shards must cover [0, view.NumNodes()).
func NewShardedAdj(view View, shards []CSRShard, shift uint32) Adj {
	return Adj{
		view:       view,
		shards:     shards,
		shardShift: shift,
		shardMask:  uint32(1)<<shift - 1,
		n:          view.NumNodes(),
	}
}

// shard returns node v's shard block and its local index there.
func (a *Adj) shard(v NodeID) (*CSRShard, uint32) {
	return &a.shards[uint32(v)>>a.shardShift], uint32(v) & a.shardMask
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
		sh, l := a.shard(v)
		return sh.InDst[sh.InOff[l]:sh.InOff[l+1]]
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
		sh, l := a.shard(u)
		return sh.OutDst[sh.OutOff[l]:sh.OutOff[l+1]]
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
	if a.shards != nil {
		sh, l := a.shard(v)
		return int(sh.InOff[l+1] - sh.InOff[l])
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
	if a.shards != nil {
		sh, l := a.shard(u)
		return int(sh.OutOff[l+1] - sh.OutOff[l])
	}
	return a.view.OutDegree(u)
}
