// Package hotidx is the hot-source serving tier in front of the live
// ProbeSim kernel: it tracks source popularity with a space-saving top-K
// sketch fed by the query path, and pins the hot set's single-source
// answers (sparse core.Ranked entries) in the server's one answer store,
// core.Querier, where they serve hot-source queries at microsecond
// latency and are exempt from its LRU bound. The tier holds no answers:
// one background goroutine pins the hot set (an answer the Querier
// already holds is pinned in place), demotes sources that went cold to
// ordinary LRU entries, and pre-builds the hot sources with no held
// answer through the Querier under the refresh budget. Cold sources
// fall through to the live path completely unchanged.
//
// Freshness is the Querier's, and incremental, not rebuild-the-world:
// every answer keeps the read set its computation reported
// (core.SingleSourceTracked), and a batch on the applied-batch stream
// drops exactly the answers whose read set holds one of its op
// endpoints; every other answer would re-execute bit-identically under
// the kernel's fixed seed, so serving it IS serving the live kernel's
// answer. A live miss on a hot source refills its pinned answer, so the
// refresher has nothing to build for it. Staleness is bounded by a lag
// metric (applied batches since the oldest dropped hot source's drop).
package hotidx

import (
	"sort"
	"sync"

	"probesim/internal/graph"
)

// SourceCount is one tracked source in the popularity sketch. Count is
// the space-saving estimate of how many times the source was queried; the
// true count lies in [Count-Err, Count].
type SourceCount struct {
	Node  graph.NodeID
	Count int64
	Err   int64
}

// Sketch is a space-saving (stream-summary) top-K frequency sketch over
// query sources: at most k counters, each Touch either increments an
// existing counter or replaces the minimum one, inheriting its count as
// the new counter's error bound. Any source with true frequency above
// total/k is guaranteed to be tracked. Safe for concurrent use; Touch is
// a mutex acquire plus an O(log k) heap fix, cheap enough for the query
// hot path.
type Sketch struct {
	mu    sync.Mutex
	k     int
	total int64
	items map[graph.NodeID]*skItem
	heap  []*skItem // min-heap by count
}

type skItem struct {
	node  graph.NodeID
	count int64
	err   int64
	pos   int
}

// NewSketch returns a sketch tracking at most k sources (minimum 1).
func NewSketch(k int) *Sketch {
	if k < 1 {
		k = 1
	}
	return &Sketch{k: k, items: make(map[graph.NodeID]*skItem, k)}
}

// Touch records one query for u.
func (s *Sketch) Touch(u graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if it, ok := s.items[u]; ok {
		it.count++
		s.siftDown(it.pos)
		return
	}
	if len(s.heap) < s.k {
		it := &skItem{node: u, count: 1, pos: len(s.heap)}
		s.items[u] = it
		s.heap = append(s.heap, it)
		s.siftUp(it.pos)
		return
	}
	// Space-saving replacement: the new source takes over the minimum
	// counter, inheriting its count as the overestimation bound.
	min := s.heap[0]
	delete(s.items, min.node)
	min.node = u
	min.err = min.count
	min.count++
	s.items[u] = min
	s.siftDown(0)
}

// Top returns up to limit tracked sources ordered by descending count
// (ties by ascending node id, for determinism).
func (s *Sketch) Top(limit int) []SourceCount {
	s.mu.Lock()
	out := make([]SourceCount, 0, len(s.heap))
	for _, it := range s.heap {
		out = append(out, SourceCount{Node: it.node, Count: it.count, Err: it.err})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Node < out[j].Node
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Tracked returns the number of sources currently tracked.
func (s *Sketch) Tracked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}

// Total returns the number of Touch calls observed.
func (s *Sketch) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

func (s *Sketch) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].count <= s.heap[i].count {
			return
		}
		s.swap(p, i)
		i = p
	}
}

func (s *Sketch) siftDown(i int) {
	n := len(s.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && s.heap[l].count < s.heap[least].count {
			least = l
		}
		if r := 2*i + 2; r < n && s.heap[r].count < s.heap[least].count {
			least = r
		}
		if least == i {
			return
		}
		s.swap(least, i)
		i = least
	}
}

func (s *Sketch) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].pos, s.heap[j].pos = i, j
}
