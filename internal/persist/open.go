package persist

// Boot-time recovery orchestration shared by cmd/probesim-server and
// cmd/probesim-shardd: one call turns a -data-dir back into a live
// sharded store plus its open write-ahead log, whatever state the
// previous process left behind.

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/wal"
)

// RecoveryStats reports what OpenStore did, for boot logs.
type RecoveryStats struct {
	// Bootstrapped is true when the directory held no state and the
	// store was built from the bootstrap graph.
	Bootstrapped bool
	// CheckpointThrough is the batch id the loaded checkpoint covered
	// (0 when bootstrapped or no checkpoint existed).
	CheckpointThrough uint64
	// Covered counts the log batches the loaded checkpoint already holds
	// (ids at or below the store's watermark once it is loaded), which
	// recovery does not replay; Replayed counts batches applied on top of
	// it; ReplaySkipped counts batches that failed semantically on replay
	// exactly as they failed when first submitted. The three add up to
	// the batches in the log.
	Covered       int64
	Replayed      int64
	ReplaySkipped int64
	// TornBytes is the size of the interrupted trailing write recovery
	// truncated off the log, if any.
	TornBytes int64
	// LastBatch is the store's apply-once watermark after recovery.
	LastBatch uint64
}

// OpenStore opens dir's durable state: it recovers the newest checkpoint
// into a store, replays the write-ahead log tail above the store's
// watermark, and returns the store with its log positioned for the next
// append. An empty directory bootstraps from the bootstrap callback
// (typically "load the -graph file"), publishes, and writes the initial
// checkpoint so the graph file is never needed again.
//
// shards and workers configure a bootstrapped store exactly as
// shard.NewStore does; a recovered store keeps the stride it was
// checkpointed with (shards is ignored), because the partition is fixed
// for the life of a store.
func OpenStore(dir string, shards, workers int, wopt wal.Options, bootstrap func() (*graph.Graph, error)) (*shard.Store, *wal.Log, RecoveryStats, error) {
	var stats RecoveryStats
	lg, rec, err := wal.Open(dir, wopt)
	if err != nil {
		return nil, nil, stats, err
	}
	fail := func(err error) (*shard.Store, *wal.Log, RecoveryStats, error) {
		lg.Close()
		return nil, nil, stats, err
	}
	var st *shard.Store
	if rec.CheckpointPath != "" {
		rc, err := wal.OpenCheckpoint(rec.CheckpointPath)
		if err != nil {
			return fail(fmt.Errorf("persist: opening checkpoint: %w", err))
		}
		st, err = ReadStore(rc, workers)
		rc.Close()
		if err != nil {
			return fail(fmt.Errorf("persist: decoding checkpoint %s: %w", rec.CheckpointPath, err))
		}
		stats.CheckpointThrough = rec.CheckpointThrough
	} else if len(rec.Batches) > 0 {
		return fail(fmt.Errorf("persist: %s holds %d log batches but no checkpoint; the initial checkpoint write must have been lost — restore it or start from a fresh directory", dir, len(rec.Batches)))
	} else {
		if bootstrap == nil {
			return fail(fmt.Errorf("persist: %s holds no recoverable state and no bootstrap graph was provided", dir))
		}
		g, err := bootstrap()
		if err != nil {
			return fail(err)
		}
		st = shard.NewStore(g, shards, workers)
		stats.Bootstrapped = true
		// The initial checkpoint makes the directory self-contained: after
		// it lands, recovery never needs the original graph file.
		snap := st.Current()
		if err := lg.Checkpoint(snap.LastBatch(), func(w io.Writer) error {
			return WriteSnapshot(w, snap)
		}); err != nil {
			return fail(fmt.Errorf("persist: initial checkpoint: %w", err))
		}
	}
	stats.TornBytes = rec.TornBytes
	// Replay the tail above the store's own watermark. A batch that fails
	// here failed identically when first submitted (same ops against the
	// same state) and was rejected to its client; the store marks it
	// decided and moves on, converging on the acknowledged graph.
	if err := rec.Replay(st.LastBatch(), func(id uint64, ops []graph.EdgeOp) error {
		if _, err := st.ApplyBatch(id, ops); err != nil {
			stats.ReplaySkipped++
		} else {
			stats.Replayed++
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	stats.Covered = int64(len(rec.Batches)) - stats.Replayed - stats.ReplaySkipped
	// Re-publish the recovered generation so the first query (and the
	// first Meta an assembling router fetches) sees the replayed state.
	st.Publish()
	stats.LastBatch = st.LastBatch()
	return st, lg, stats, nil
}

// Checkpointer periodically spills the store's published snapshot, in
// full, into the log's checkpoint slot, which supersedes the previous
// checkpoint and truncates covered segments — the cadence knob that
// bounds both recovery replay time and disk growth.
type Checkpointer struct {
	st    *shard.Store
	lg    *wal.Log
	every int64

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}
	done    chan struct{}
}

// StartCheckpointer runs a background loop that checkpoints whenever at
// least every batches have been appended beyond the last checkpoint,
// polling at the given interval (<= 0 means 1s; every <= 0 means 1024).
// The loop logs each failed checkpoint with slog.Error and retries on
// its next poll.
func StartCheckpointer(st *shard.Store, lg *wal.Log, every int64, interval time.Duration) *Checkpointer {
	if every <= 0 {
		every = 1024
	}
	if interval <= 0 {
		interval = time.Second
	}
	c := &Checkpointer{
		st: st, lg: lg, every: every,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				if lg.AppendsSinceCheckpoint() >= every {
					if err := c.Checkpoint(); err != nil {
						slog.Error("background checkpoint failed", "err", err)
					}
				}
			}
		}
	}()
	return c
}

// Checkpoint spills the currently published snapshot now. Safe to call
// concurrently with the background loop (checkpoint writes serialize).
func (c *Checkpointer) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := c.st.Current()
	if snap == nil {
		return nil
	}
	if snap.LastBatch() <= c.lg.LastCheckpoint() {
		return nil // nothing new is published yet
	}
	return c.lg.Checkpoint(snap.LastBatch(), func(w io.Writer) error {
		return WriteSnapshot(w, snap)
	})
}

// Stop halts the loop and takes one final checkpoint so a graceful
// shutdown restarts with an empty replay tail.
func (c *Checkpointer) Stop() error {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done
	return c.Checkpoint()
}
