// Package persist is the durable form of a sharded snapshot: a binary
// spill of shard.StoreSnapshot that reuses the CSR layout byte for byte
// (per-shard offset and destination arrays, written as-is), plus the
// boot-time orchestration that turns a data directory back into a live
// store — load the newest checkpoint, replay the write-ahead log tail
// through the store's apply-once watermark, republish.
//
// Spill layout (little-endian):
//
//	u32 magic | u32 format (1)
//	u64 nodes | u64 edges | u64 store version | u64 last batch id
//	u32 shift | u32 shard count
//	per shard: u64 shard version,
//	           u32 len(InOff)  | InOff...  (u32 each)
//	           u32 len(InDst)  | InDst...  (u32 each)
//	           u32 len(OutOff) | OutOff... (u32 each)
//	           u32 len(OutDst) | OutDst... (u32 each)
//
// Every spill is a full one: every shard's arrays are present, and the
// reader refuses a shard whose block does not cover its node range.
//
// Integrity is layered: the write-ahead log wraps every checkpoint file
// in a whole-file CRC32C trailer (wal.VerifyFileCRC) before recovery
// will touch it, and shard.Restore re-validates the structural
// invariants (offset monotonicity, dst lengths, edge counts) after
// decoding — a checkpoint that passes both is safe to serve from.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"probesim/internal/graph"
	"probesim/internal/shard"
)

const (
	spillMagic  = 0x50535053 // "PSPS"
	spillFormat = 1

	// maxArrayBytes bounds one decoded array: a corrupt length prefix
	// must not get to allocate the machine before the CRC check (which
	// OpenStore runs first) or the structural validation would catch it.
	maxArrayBytes = 1 << 33

	// arrayChunk is how many u32 values the array codecs move per
	// bufio call — bandwidth-bound I/O instead of per-value calls.
	arrayChunk = 1 << 18
)

// ErrFormat reports a structurally invalid spill.
var ErrFormat = errors.New("persist: invalid snapshot spill")

// WriteSnapshot spills snap to w in the durable CSR format.
func WriteSnapshot(w io.Writer, snap *shard.StoreSnapshot) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [40]byte
	binary.LittleEndian.PutUint32(hdr[0:4], spillMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], spillFormat)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(snap.NumNodes()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(snap.NumEdges()))
	binary.LittleEndian.PutUint64(hdr[24:32], snap.Version())
	binary.LittleEndian.PutUint64(hdr[32:40], snap.LastBatch())
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var word [8]byte
	writeU32 := func(x uint32) error {
		binary.LittleEndian.PutUint32(word[:4], x)
		_, err := bw.Write(word[:4])
		return err
	}
	writeU64 := func(x uint64) error {
		binary.LittleEndian.PutUint64(word[:], x)
		_, err := bw.Write(word[:])
		return err
	}
	if err := writeU32(snap.Shift()); err != nil {
		return err
	}
	if err := writeU32(uint32(snap.NumShards())); err != nil {
		return err
	}
	// Arrays move through a chunk buffer: one bufio.Write per ~1MB of
	// values, not one per value — checkpoints of billion-edge graphs are
	// bandwidth-bound, not call-bound.
	chunk := make([]byte, 0, arrayChunk*4)
	writeU32s := func(v []uint32) error {
		if err := writeU32(uint32(len(v))); err != nil {
			return err
		}
		for len(v) > 0 {
			n := min(len(v), arrayChunk)
			chunk = chunk[:0]
			for _, x := range v[:n] {
				chunk = binary.LittleEndian.AppendUint32(chunk, x)
			}
			if _, err := bw.Write(chunk); err != nil {
				return err
			}
			v = v[n:]
		}
		return nil
	}
	writeNodes := func(v []graph.NodeID) error {
		if err := writeU32(uint32(len(v))); err != nil {
			return err
		}
		for len(v) > 0 {
			n := min(len(v), arrayChunk)
			chunk = chunk[:0]
			for _, x := range v[:n] {
				chunk = binary.LittleEndian.AppendUint32(chunk, uint32(x))
			}
			if _, err := bw.Write(chunk); err != nil {
				return err
			}
			v = v[n:]
		}
		return nil
	}
	for p := 0; p < snap.NumShards(); p++ {
		if err := writeU64(snap.ShardVersion(p)); err != nil {
			return err
		}
		sh := snap.Shard(p)
		if err := writeU32s(sh.InOff); err != nil {
			return err
		}
		if err := writeNodes(sh.InDst); err != nil {
			return err
		}
		if err := writeU32s(sh.OutOff); err != nil {
			return err
		}
		if err := writeNodes(sh.OutDst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spill is one decoded checkpoint file.
type spill struct {
	n         uint64
	m         uint64
	version   uint64
	lastBatch uint64
	shift     uint32
	csr       []graph.CSRShard
	versions  []uint64
}

// readSpill decodes one spill file.
func readSpill(r io.Reader) (*spill, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [40]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != spillMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrFormat, binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if format := binary.LittleEndian.Uint32(hdr[4:8]); format != spillFormat {
		return nil, fmt.Errorf("%w: format %d, want %d", ErrFormat, format, spillFormat)
	}
	sp := &spill{
		n:         binary.LittleEndian.Uint64(hdr[8:16]),
		m:         binary.LittleEndian.Uint64(hdr[16:24]),
		version:   binary.LittleEndian.Uint64(hdr[24:32]),
		lastBatch: binary.LittleEndian.Uint64(hdr[32:40]),
	}
	if sp.n > 1<<31 {
		return nil, fmt.Errorf("%w: node count %d exceeds int32 range", ErrFormat, sp.n)
	}
	if sp.m > math.MaxInt64 {
		return nil, fmt.Errorf("%w: edge count %d", ErrFormat, sp.m)
	}
	var word [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, word[:4]); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		return binary.LittleEndian.Uint32(word[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, word[:]); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		return binary.LittleEndian.Uint64(word[:]), nil
	}
	shift, err := readU32()
	if err != nil {
		return nil, err
	}
	if shift > 31 {
		return nil, fmt.Errorf("%w: shard shift %d", ErrFormat, shift)
	}
	sp.shift = shift
	shards, err := readU32()
	if err != nil {
		return nil, err
	}
	stride := uint64(1) << shift
	wantShards := (sp.n + stride - 1) / stride
	if uint64(shards) != wantShards {
		return nil, fmt.Errorf("%w: %d shards for %d nodes at stride %d, want %d", ErrFormat, shards, sp.n, stride, wantShards)
	}
	// Arrays grow only as bytes actually arrive: readU32Array decodes in
	// bounded chunks (one io.ReadFull per ~1MB of values, allocation
	// tracking delivered bytes), so a corrupt length can neither allocate
	// past the input nor pay a function call per value.
	chunk := make([]byte, arrayChunk*4)
	readU32Array := func(what string) ([]uint32, error) {
		cnt, err := readU32()
		if err != nil {
			return nil, err
		}
		if uint64(cnt)*4 > maxArrayBytes {
			return nil, fmt.Errorf("%w: %s of %d entries", ErrFormat, what, cnt)
		}
		out := make([]uint32, 0, min(int(cnt), arrayChunk))
		for remaining := int(cnt); remaining > 0; {
			n := min(remaining, arrayChunk)
			if _, err := io.ReadFull(br, chunk[:n*4]); err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrFormat, what, err)
			}
			for i := 0; i < n; i++ {
				out = append(out, binary.LittleEndian.Uint32(chunk[i*4:]))
			}
			remaining -= n
		}
		return out, nil
	}
	sp.csr = make([]graph.CSRShard, shards)
	sp.versions = make([]uint64, shards)
	for p := range sp.csr {
		if sp.versions[p], err = readU64(); err != nil {
			return nil, err
		}
		inOff, err := readU32Array("InOff")
		if err != nil {
			return nil, err
		}
		inDst, err := readU32Array("InDst")
		if err != nil {
			return nil, err
		}
		outOff, err := readU32Array("OutOff")
		if err != nil {
			return nil, err
		}
		outDst, err := readU32Array("OutDst")
		if err != nil {
			return nil, err
		}
		sp.csr[p] = graph.CSRShard{
			InOff:  inOff,
			InDst:  u32sToNodes(inDst),
			OutOff: outOff,
			OutDst: u32sToNodes(outDst),
		}
	}
	// Trailing garbage means the file is not what the writer produced.
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("%w: trailing bytes after last shard", ErrFormat)
	} else if !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return sp, nil
}

// ReadStore decodes a spill and rebuilds a live store from it: the
// decoded CSR blocks become the published snapshot and the store's one
// copy of the adjacency, and the version/apply-once watermark resume
// where the checkpoint left them. workers bounds the store's rebuild
// pool as in shard.NewStore.
func ReadStore(r io.Reader, workers int) (*shard.Store, error) {
	sp, err := readSpill(r)
	if err != nil {
		return nil, err
	}
	st, err := shard.Restore(int(sp.n), int64(sp.m), sp.version, sp.lastBatch, sp.shift, sp.csr, sp.versions, workers)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return st, nil
}

// u32sToNodes reinterprets decoded u32s as node ids without another pass
// allocation-wise (NodeID is int32; the slice is reallocated since the
// element types differ, but only once).
func u32sToNodes(v []uint32) []graph.NodeID {
	out := make([]graph.NodeID, len(v))
	for i, x := range v {
		out[i] = graph.NodeID(int32(x))
	}
	return out
}
