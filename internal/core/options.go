package core

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"probesim/internal/walk"
)

// Mode selects which ProbeSim variant answers a query. The variants differ
// in how probes are executed, not in what they estimate; all satisfy the
// εa guarantee of Theorems 1-3.
type Mode int

const (
	// ModeAuto is the paper's full configuration (§6.1 "we apply all
	// optimizations presented in Sections 4.1 and 4.3"): pruning rules 1-2,
	// the batch walk tree, and the hybrid deterministic/randomized switch.
	ModeAuto Mode = iota
	// ModeBasic is Algorithm 1 with the deterministic probe and no
	// optimizations (walks capped only by the statistical hard limit).
	ModeBasic
	// ModePruned is Algorithm 1 plus pruning rules 1 and 2 (§4.1).
	ModePruned
	// ModeBatch adds the reverse-reachability walk tree (§4.2) on top of
	// ModePruned, probing each shared prefix once.
	ModeBatch
	// ModeRandomized is Algorithm 1 with the randomized probe (§4.3) and
	// walk truncation, the O(n/εa²·log(n/δ)) worst-case variant.
	ModeRandomized
	// ModeHybrid is the §4.4 best-of-both-worlds strategy: batch tree with
	// a per-path switch from deterministic to randomized probing when the
	// frontier outgrows c0·w·n.
	ModeHybrid
)

// String returns the mode name used in logs and experiment tables.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeBasic:
		return "basic"
	case ModePruned:
		return "pruned"
	case ModeBatch:
		return "batch"
	case ModeRandomized:
		return "randomized"
	case ModeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultEpsA is the absolute error bound εa a query runs at when
// Options.EpsA is zero.
const DefaultEpsA = 0.1

// Options configures a ProbeSim query. The zero value asks for the paper's
// defaults: c = 0.6, εa = DefaultEpsA (0.1), δ = 0.01, ModeAuto, all
// cores, seed 1.
type Options struct {
	// C is the SimRank decay factor in (0, 1). Default 0.6.
	C float64
	// EpsA is the maximum absolute error εa of any returned similarity.
	// Default DefaultEpsA.
	EpsA float64
	// Delta is the failure probability δ. Default 0.01.
	Delta float64
	// Mode selects the execution strategy. Default ModeAuto.
	Mode Mode
	// Workers bounds parallelism. Default runtime.GOMAXPROCS(0).
	Workers int
	// Seed makes results reproducible for a fixed (Seed, Workers) pair.
	// Default 1.
	Seed uint64

	// Budget bounds the query's resource consumption at serving time:
	// wall clock, walk trials, probe work. The zero value is unbounded
	// (the library default); serving stacks set it so a single huge query
	// can never occupy the process indefinitely. See Budget.
	Budget Budget

	// NumWalks overrides the derived trial count nr when > 0 (used by the
	// experiment harness to trade accuracy for speed explicitly).
	NumWalks int
	// HybridC0 is the §4.4 switch constant c0. Default 1.
	HybridC0 float64
	// CompensateTruncation adds εt/2 to every non-zero estimate, halving
	// the one-sided truncation error as suggested at the end of §4.1.
	CompensateTruncation bool
}

// Budget bounds one query's resource consumption. Every limit is
// best-effort-prompt rather than instantaneous: kernels check at
// amortized checkpoints (every few walk trials, every probe level), so a
// tripped budget surfaces within one checkpoint interval — microseconds
// of work — while un-budgeted queries pay only a nil-check.
//
// A query stopped by its budget returns its partial estimate alongside
// the error (wrapped budget.Error; errors.Is recognizes
// context.DeadlineExceeded, context.Canceled and budget.ErrBudget). The
// partial vector holds whatever the completed trials accumulated — a
// systematic underestimate with no εa guarantee — so callers must treat
// it as diagnostic, not as an answer.
type Budget struct {
	// Timeout bounds the query's wall-clock time. It combines with any
	// context deadline (the earlier wins); 0 means no extra bound.
	Timeout time.Duration
	// MaxWalks caps the number of √c-walk trials across all workers.
	// 0 means the plan's derived trial count is the only bound.
	MaxWalks int64
	// MaxProbeWork caps probe edge traversals across all workers, the
	// dominant cost term of Algorithm 2. 0 means uncapped.
	MaxProbeWork int64
}

// IsZero reports whether the budget imposes no constraint.
func (b Budget) IsZero() bool {
	return b.Timeout <= 0 && b.MaxWalks <= 0 && b.MaxProbeWork <= 0
}

func (o Options) withDefaults() Options {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.EpsA == 0 {
		o.EpsA = DefaultEpsA
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HybridC0 == 0 {
		o.HybridC0 = 1
	}
	return o
}

func (o Options) validate() error {
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("core: decay factor c = %v outside (0, 1)", o.C)
	}
	if o.EpsA <= 0 || o.EpsA >= 1 {
		return fmt.Errorf("core: error bound εa = %v outside (0, 1)", o.EpsA)
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return fmt.Errorf("core: failure probability δ = %v outside (0, 1)", o.Delta)
	}
	if o.Mode < ModeAuto || o.Mode > ModeHybrid {
		return fmt.Errorf("core: unknown mode %d", int(o.Mode))
	}
	return nil
}

// Plan is the resolved execution plan for a query: every parameter the
// theorems reason about, derived from Options and the graph size.
type Plan struct {
	Mode  Mode
	C     float64
	SqrtC float64
	// Eps is the sampling error ε, EpsT the walk-truncation parameter εt,
	// EpsP the probe-pruning parameter εp. For modes without pruning,
	// EpsT = EpsP = 0 and Eps = EpsA.
	Eps, EpsT, EpsP float64
	// NumWalks is the trial count nr = ⌈3c/ε² · ln(n/δ)⌉.
	NumWalks int
	// MaxWalkNodes caps walk length (pruning rule 1), or the statistical
	// hard cap when truncation is off.
	MaxWalkNodes int
	Workers      int
	Seed         uint64
	HybridC0     float64
	Compensate   bool
}

// planFor derives the execution plan from options for a graph with n nodes.
//
// For modes with pruning, Theorem 2 requires
//
//	ε + (1+ε)/(1−√c)·εp + εt/2 <= εa.
//
// We split the budget as ε = εa/2, εt = εa/2 (contributing εa/4) and
// εp = εa(1−√c)/(4(1+ε)) (contributing εa/4), achieving equality.
func planFor(o Options, n int) Plan {
	p := Plan{
		Mode:     o.Mode,
		C:        o.C,
		SqrtC:    math.Sqrt(o.C),
		Workers:  o.Workers,
		Seed:     o.Seed,
		HybridC0: o.HybridC0,
	}
	switch o.Mode {
	case ModeBasic:
		p.Eps = o.EpsA
		p.MaxWalkNodes = walk.HardCap
	case ModeRandomized:
		// The randomized probe adds no pruning error; use rule 1 only,
		// splitting εa between sampling and truncation.
		p.Eps = o.EpsA * 3 / 4
		p.EpsT = o.EpsA / 2 // contributes εt/2 = εa/4
		p.MaxWalkNodes = walk.TruncateLen(p.EpsT, p.SqrtC)
	default: // ModeAuto, ModePruned, ModeBatch, ModeHybrid
		p.Eps = o.EpsA / 2
		p.EpsT = o.EpsA / 2
		p.EpsP = o.EpsA * (1 - p.SqrtC) / (4 * (1 + p.Eps))
		p.MaxWalkNodes = walk.TruncateLen(p.EpsT, p.SqrtC)
		p.Compensate = o.CompensateTruncation
	}
	if o.NumWalks > 0 {
		p.NumWalks = o.NumWalks
	} else {
		nn := n
		if nn < 2 {
			nn = 2
		}
		p.NumWalks = int(math.Ceil(3 * o.C / (p.Eps * p.Eps) * math.Log(float64(nn)/o.Delta)))
	}
	if p.NumWalks < 1 {
		p.NumWalks = 1
	}
	return p
}

// PlanFor exposes the derived execution plan (for documentation, tests and
// the experiment harness).
func PlanFor(o Options, n int) (Plan, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Plan{}, err
	}
	return planFor(o, n), nil
}
