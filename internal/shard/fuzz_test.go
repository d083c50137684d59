package shard

import (
	"encoding/binary"
	"testing"

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
