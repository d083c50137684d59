// Package faultinject makes worker failure a reproducible input instead
// of an operational anecdote. It provides two fault surfaces:
//
//   - Engine, a ShardEngine wrapper that injects transport errors, lost
//     replies, latency spikes and hangs from a schedule derived purely
//     from (seed, call index) — replaying the same seed replays the
//     same faults;
//   - Proxy (proxy.go), a TCP relay that refuses, delays, partitions
//     and kills connections mid-reply, for tests that need the faults
//     on a real wire.
//
// Both count what they injected, so a test can assert the run actually
// exercised the failure paths it claims to cover.
package faultinject

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"probesim/internal/graph"
	"probesim/internal/router"
	"probesim/internal/xrand"
)

// Plan is a deterministic fault schedule. Probabilities are cumulative
// over [0,1): each data-plane call draws one uniform variate from a
// SplitMix64 stream keyed by (Seed, call index) and lands in at most
// one fault class. Control-plane calls (Meta, Ping, Publish, Close)
// always pass through — the router needs them to assemble and heal; use
// Proxy to break those too.
type Plan struct {
	Seed uint64

	PError float64 // fail before the engine sees the call
	PLost  float64 // run the call, then report a transport failure (lost reply)
	PSlow  float64 // delay the call by Slow, then run it
	PHang  float64 // block until the context fires or MaxHang elapses

	Slow    time.Duration // latency spike for PSlow (default 20ms)
	MaxHang time.Duration // hang ceiling for PHang (default 2s)

	// ReadsOnly restricts injection to ResolveShards, leaving Apply
	// clean — for tests that fault the read plane while keeping the
	// write plane converged.
	ReadsOnly bool
}

type faultKind int

const (
	faultNone faultKind = iota
	faultError
	faultLost
	faultSlow
	faultHang
)

// Engine wraps a ShardEngine with the Plan's fault schedule.
type Engine struct {
	inner router.ShardEngine
	plan  Plan

	calls    atomic.Uint64
	injected atomic.Int64
}

var _ router.ShardEngine = (*Engine)(nil)

// Wrap returns eng with plan's faults injected in front of it.
func Wrap(eng router.ShardEngine, plan Plan) *Engine {
	if plan.Slow <= 0 {
		plan.Slow = 20 * time.Millisecond
	}
	if plan.MaxHang <= 0 {
		plan.MaxHang = 2 * time.Second
	}
	return &Engine{inner: eng, plan: plan}
}

// Injected reports how many calls had a fault injected.
func (e *Engine) Injected() int64 { return e.injected.Load() }

// Calls reports how many fault-eligible calls the engine has seen.
func (e *Engine) Calls() uint64 { return e.calls.Load() }

// decide draws the fault for the next call index. The stream is keyed
// by the index (golden-ratio scrambled), not by a shared RNG, so the
// decision for call n does not depend on how calls interleave.
func (e *Engine) decide() faultKind {
	n := e.calls.Add(1)
	u := xrand.New(e.plan.Seed ^ n*0x9e3779b97f4a7c15).Float64()
	p := e.plan
	switch {
	case u < p.PError:
		return faultError
	case u < p.PError+p.PLost:
		return faultLost
	case u < p.PError+p.PLost+p.PSlow:
		return faultSlow
	case u < p.PError+p.PLost+p.PSlow+p.PHang:
		return faultHang
	}
	return faultNone
}

// errInjected builds the transport error the router's failover paths
// classify as retryable — the same class a dead TCP worker produces.
func errInjected(what string, n uint64) error {
	return fmt.Errorf("%w: faultinject: injected %s at call %d", router.ErrTransport, what, n)
}

// before runs the pre-call half of a fault. It returns a non-nil error
// to abort the call, and lost=true when the call should run but its
// reply must be discarded.
func (e *Engine) before(ctx context.Context, kind faultKind) (lost bool, err error) {
	n := e.calls.Load()
	switch kind {
	case faultError:
		e.injected.Add(1)
		return false, errInjected("transport error", n)
	case faultLost:
		e.injected.Add(1)
		return true, nil
	case faultSlow:
		e.injected.Add(1)
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(e.plan.Slow):
		}
		return false, nil
	case faultHang:
		e.injected.Add(1)
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(e.plan.MaxHang):
			return false, errInjected("hang", n)
		}
	}
	return false, nil
}

// Meta implements ShardEngine (control plane: never faulted).
func (e *Engine) Meta(ctx context.Context) (router.Meta, error) { return e.inner.Meta(ctx) }

// Ping implements ShardEngine (control plane: never faulted).
func (e *Engine) Ping(ctx context.Context) (uint64, uint64, error) { return e.inner.Ping(ctx) }

// Publish implements ShardEngine (control plane: never faulted).
func (e *Engine) Publish(ctx context.Context) (router.Meta, error) { return e.inner.Publish(ctx) }

// Close implements ShardEngine.
func (e *Engine) Close() error { return e.inner.Close() }

// ResolveShards implements ShardEngine with read faults: the batch is
// one call on the wire, so it draws one fault decision.
func (e *Engine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	lost, err := e.before(ctx, e.decide())
	if err != nil {
		return nil, err
	}
	csrs, err := e.inner.ResolveShards(ctx, version, ps)
	if lost && err == nil {
		return nil, errInjected("lost reply", e.calls.Load())
	}
	return csrs, err
}

// Apply implements ShardEngine with write faults (disabled by
// ReadsOnly). A lost reply here is the classic apply-then-die window
// the batch ids close: the inner engine HAS the batch, the caller sees
// a transport error.
func (e *Engine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	if e.plan.ReadsOnly {
		return e.inner.Apply(ctx, batch, ops)
	}
	lost, err := e.before(ctx, e.decide())
	if err != nil {
		return 0, err
	}
	v, err := e.inner.Apply(ctx, batch, ops)
	if lost && err == nil {
		return 0, errInjected("lost apply reply", e.calls.Load())
	}
	return v, err
}
