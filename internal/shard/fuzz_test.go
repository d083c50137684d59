package shard

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"

	"probesim/internal/gen"
	"probesim/internal/graph"
)

// blockBytes encodes b as FuzzCheckBlock's input: InOff, InDst, OutOff
// and OutDst in turn, each as a one-byte length followed by its
// little-endian 32-bit entries.
func blockBytes(b graph.CSRShard) []byte {
	var out []byte
	put := func(n int, at func(int) uint32) {
		out = append(out, byte(n))
		for i := 0; i < n; i++ {
			out = binary.LittleEndian.AppendUint32(out, at(i))
		}
	}
	put(len(b.InOff), func(i int) uint32 { return b.InOff[i] })
	put(len(b.InDst), func(i int) uint32 { return uint32(b.InDst[i]) })
	put(len(b.OutOff), func(i int) uint32 { return b.OutOff[i] })
	put(len(b.OutDst), func(i int) uint32 { return uint32(b.OutDst[i]) })
	return out
}

// blockFromBytes decodes blockBytes' format from arbitrary bytes: an
// array whose entries run out is cut short, and missing arrays are empty.
func blockFromBytes(data []byte) graph.CSRShard {
	next := func() []uint32 {
		if len(data) == 0 {
			return nil
		}
		k := int(data[0])
		data = data[1:]
		var xs []uint32
		for ; k > 0 && len(data) >= 4; k-- {
			xs = append(xs, binary.LittleEndian.Uint32(data))
			data = data[4:]
		}
		return xs
	}
	nodes := func(xs []uint32) []graph.NodeID {
		out := make([]graph.NodeID, len(xs))
		for i, x := range xs {
			out[i] = graph.NodeID(int32(x))
		}
		return out
	}
	return graph.CSRShard{InOff: next(), InDst: nodes(next()), OutOff: next(), OutDst: nodes(next())}
}

// FuzzCheckBlock feeds CheckBlock blocks built from random bytes: every
// block it accepts must read through graph.NewShardedAdj for every node
// of its shard without panicking, with degrees matching the lists and
// every neighbour in [0, n).
func FuzzCheckBlock(f *testing.F) {
	snap := NewStore(gen.PreferentialAttachment(20, 3, 1), 2, 0).Current()
	b := snap.Shard(0)
	f.Add(uint8(snap.Shift()), uint8(0), uint16(snap.NumNodes()), blockBytes(b))
	b.InOff = b.InOff[:len(b.InOff)/2] // a truncated offset array
	f.Add(uint8(snap.Shift()), uint8(0), uint16(snap.NumNodes()), blockBytes(b))
	f.Fuzz(func(t *testing.T, shift, p uint8, n uint16, data []byte) {
		shift %= 8
		p %= 8
		b := blockFromBytes(data)
		if CheckBlock(b, int(p), uint32(shift), int(n)) != nil {
			return
		}
		shards := make([]graph.CSRShard, int(p)+1)
		shards[p] = b
		adj := graph.NewShardedAdj(graph.EmptyView(int(n)), shards, uint32(shift))
		lo := int(p) << shift
		for v := graph.NodeID(lo); int(v) < min(int(n), lo+1<<shift); v++ {
			in, out := adj.In(v), adj.Out(v)
			if adj.InDegree(v) != len(in) || adj.OutDegree(v) != len(out) {
				t.Fatalf("node %d: degrees %d/%d for lists of %d/%d", v, adj.InDegree(v), adj.OutDegree(v), len(in), len(out))
			}
			for _, list := range [][]graph.NodeID{in, out} {
				for _, w := range list {
					if w < 0 || int(w) >= int(n) {
						t.Fatalf("node %d: neighbour %d out of range [0, %d)", v, w, n)
					}
				}
			}
		}
	})
}

// storeScript is FuzzStoreMatchesGraph's command language, one command
// per step: a batch (storeBatch, then an op count, then three bytes per
// op: bit 0 of the first marks a removal, the next two are the endpoints,
// byte b naming node b%(n+2)-1, so -1 and n are out of range), a
// publication, a publication under a canceled context, or a Restore of
// the store from the current snapshot's blocks.
const (
	storeBatch = iota
	storePublish
	storePublishCanceled
	storeRestore
	storeCommands
)

// node is the endpoint byte storeScript decodes to node x of an n-node
// graph (x = -1 and x = n are out of range).
func node(x int) byte { return byte(x + 1) }

// FuzzStoreMatchesGraph drives a store and a *graph.Graph mirror through
// the same scripted batches (adds, removes of present and absent edges,
// self-loops, out-of-range ids, so that some batches are rejected
// mid-way and rolled back), publications, canceled publications and
// restores. After every successful publication each node's in- and
// out-list equals the mirror's, in order, and Validate passes; a shard
// no op touched since the previous publication keeps its arrays by
// reference and its version; and no published array ever changes.
func FuzzStoreMatchesGraph(f *testing.F) {
	batch := func(ops ...[3]int) []byte {
		b := []byte{storeBatch, byte(len(ops) - 1)}
		for _, op := range ops {
			b = append(b, byte(op[0]), node(op[1]), node(op[2]))
		}
		return b
	}
	script := func(steps ...[]byte) []byte { return slices.Concat(steps...) }
	pub := []byte{storePublish}
	// 32 nodes in 4 shards of 8: move the first and last local nodes of
	// shard 1 and the graph's last node, then roll a batch back.
	f.Add(uint8(30), uint8(3), uint8(1), uint8(1), script(
		batch([3]int{0, 8, 15}, [3]int{0, 31, 8}, [3]int{0, 15, 16}), pub,
		batch([3]int{0, 7, 8}, [3]int{1, 31, 8}, [3]int{1, 31, 8}), pub))
	// Empty node 9's out-list (its one edge is 9 -> 2 at out-degree 1),
	// publish, refill it under a canceled publication, then restore.
	f.Add(uint8(30), uint8(3), uint8(0), uint8(0), script(
		batch([3]int{1, 9, 2}), pub,
		batch([3]int{0, 9, 3}), []byte{storePublishCanceled}, pub, []byte{storeRestore},
		batch([3]int{1, 9, 3}, [3]int{0, 9, 9}), pub))
	// A hub: node 0's in-list grows, loses entries from its middle and
	// takes a rejected batch with an out-of-range id, across shards.
	f.Add(uint8(38), uint8(7), uint8(3), uint8(2), script(
		batch([3]int{0, 20, 0}, [3]int{0, 21, 0}, [3]int{0, 33, 0}, [3]int{0, 39, 0}), pub,
		batch([3]int{1, 20, 0}, [3]int{1, 1, 0}), []byte{storePublishCanceled},
		batch([3]int{0, 22, 0}, [3]int{0, 40, 0}), pub, []byte{storeRestore}, pub))
	f.Fuzz(func(t *testing.T, nb, shards, seed, deg uint8, data []byte) {
		n := 2 + int(nb)%39
		mirror := gen.PreferentialAttachment(n, 1+int(deg)%4, uint64(seed))
		st := NewStore(mirror.Clone(), 1+int(shards)%8, 2)
		atPub := mirror.Clone() // the graph the current snapshot holds
		touched := map[int]bool{}
		type frozen struct {
			snap *StoreSnapshot
			csr  []graph.CSRShard // a deep copy of snap's blocks
		}
		var published []frozen
		freeze := func(s *StoreSnapshot) {
			c := make([]graph.CSRShard, s.NumShards())
			for p := range c {
				b := s.Shard(p)
				c[p] = graph.CSRShard{InOff: slices.Clone(b.InOff), InDst: slices.Clone(b.InDst),
					OutOff: slices.Clone(b.OutOff), OutDst: slices.Clone(b.OutDst)}
			}
			published = append(published, frozen{s, c})
		}
		freeze(st.Current())
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		publish := func() {
			prev := st.Current()
			snap := st.Publish()
			for v := graph.NodeID(0); int(v) < n; v++ {
				if !slices.Equal(snap.InNeighbors(v), mirror.InNeighbors(v)) || !slices.Equal(snap.OutNeighbors(v), mirror.OutNeighbors(v)) {
					t.Fatalf("node %d: lists in %v out %v, mirror in %v out %v",
						v, snap.InNeighbors(v), snap.OutNeighbors(v), mirror.InNeighbors(v), mirror.OutNeighbors(v))
				}
			}
			if err := snap.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := st.Validate(); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < snap.NumShards(); p++ {
				if touched[p] {
					continue
				}
				a, b := prev.Shard(p), snap.Shard(p)
				if !sameBlock(a, b) || prev.ShardVersion(p) != snap.ShardVersion(p) {
					t.Fatalf("shard %d: no op touched it, but publication replaced its block or version", p)
				}
			}
			if snap != prev {
				freeze(snap)
			}
			clear(touched)
			atPub = mirror.Clone()
		}
		for {
			c, ok := next()
			if !ok {
				break
			}
			switch c % storeCommands {
			case storeBatch:
				k, _ := next()
				var ops []graph.EdgeOp
				for i := 0; i <= int(k%8); i++ {
					kind, _ := next()
					u, _ := next()
					v, _ := next()
					ops = append(ops, graph.EdgeOp{Remove: kind&1 == 1,
						U: graph.NodeID(int(u)%(n+2) - 1), V: graph.NodeID(int(v)%(n+2) - 1)})
				}
				sim, failed := mirror.Clone(), len(ops)
				for i, op := range ops {
					apply := sim.AddEdge
					if op.Remove {
						apply = sim.RemoveEdge
					}
					if apply(op.U, op.V) != nil {
						failed = i
						break
					}
				}
				_, err := st.ApplyBatch(0, ops)
				if (err != nil) != (failed < len(ops)) {
					t.Fatalf("batch %v: store error %v, mirror rejects op %d", ops, err, failed)
				}
				if err == nil {
					mirror = sim
				}
				for _, op := range ops[:failed] {
					touched[st.Partition().ShardOf(op.U)] = true
					touched[st.Partition().ShardOf(op.V)] = true
				}
			case storePublish:
				publish()
			case storePublishCanceled:
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				cur := st.Current()
				pending := st.Version() != cur.Version()
				if snap, err := st.PublishCtx(ctx); (err != nil) != pending || snap != cur || st.Current() != cur {
					t.Fatalf("canceled publication with pending ops %v: err %v, snapshot replaced %v", pending, err, st.Current() != cur)
				}
			case storeRestore:
				cur := st.Current()
				blocks := make([]graph.CSRShard, cur.NumShards())
				versions := make([]uint64, cur.NumShards())
				for p := range blocks {
					blocks[p], versions[p] = cur.Shard(p), cur.ShardVersion(p)
				}
				var err error
				st, err = Restore(cur.NumNodes(), cur.NumEdges(), cur.Version(), cur.LastBatch(), cur.Shift(), blocks, versions, 2)
				if err != nil {
					t.Fatal(err)
				}
				mirror = atPub.Clone()
				clear(touched)
			}
		}
		publish()
		for _, fz := range published {
			for p := range fz.csr {
				if b := fz.snap.Shard(p); !slices.Equal(b.InOff, fz.csr[p].InOff) || !slices.Equal(b.InDst, fz.csr[p].InDst) ||
					!slices.Equal(b.OutOff, fz.csr[p].OutOff) || !slices.Equal(b.OutDst, fz.csr[p].OutDst) {
					t.Fatalf("shard %d of published version %d changed after publication", p, fz.snap.Version())
				}
			}
		}
	})
}

// sameBlock reports whether a and b share all four arrays by reference.
func sameBlock(a, b graph.CSRShard) bool {
	return unsafe.SliceData(a.InOff) == unsafe.SliceData(b.InOff) && len(a.InOff) == len(b.InOff) &&
		unsafe.SliceData(a.InDst) == unsafe.SliceData(b.InDst) && len(a.InDst) == len(b.InDst) &&
		unsafe.SliceData(a.OutOff) == unsafe.SliceData(b.OutOff) && len(a.OutOff) == len(b.OutOff) &&
		unsafe.SliceData(a.OutDst) == unsafe.SliceData(b.OutDst) && len(a.OutDst) == len(b.OutDst)
}
