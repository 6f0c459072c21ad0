package sim

// The step-kernel: the one plan→admit→loss→deliver loop shared by all four
// engines (baseline, dynamic, fault, underlay). The kernel owns possession
// state, dense arc-usage accounting, loss draws, idle/stall tracking, and
// schedule assembly; everything engine-specific enters through the small
// policy interfaces below. A correctness fix or allocation win in this loop
// lands in every engine at once.
//
// Equivalence contract: the kernel reproduces each pre-consolidation engine
// byte for byte (see golden_test.go). The ordering facts that contract
// depends on are called out inline — PreStep before the done check, loss
// draws per accepted move in admission order, idle steps appending a nil
// timestep, and metrics finalization left to the caller (the fault engine
// finalizes even on a stall; the others do not).

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/tokenset"
)

// CapacityModel supplies each timestep's effective arc capacities. StepView
// fills eff — indexed by the base graph's dense arc IDs — with this step's
// capacities (0 removes the arc) and returns the instance the strategy
// should plan against, typically a view whose graph reflects the effective
// capacities. A nil CapacityModel means the base graph's static capacities
// and the base instance.
type CapacityModel interface {
	StepView(step int, st *State, eff []int) *core.Instance
}

// LossPolicy decides which accepted moves are dropped in transit. Lost is
// called exactly once per accepted move, in admission order — stateful
// policies (PRNG streams, per-arc draw indices) depend on that ordering.
type LossPolicy interface {
	Lost(step int, mv core.Move, arcID int) bool
}

// StepInterceptor hooks engine-specific semantics into fixed points of the
// kernel's timestep. The fault engine is the canonical implementation:
// crash transitions in PreStep, graceful settlement in StopEarly and
// OnIdleLimit, retransmission accounting in OnDeliver.
type StepInterceptor interface {
	// PreStep runs first in every timestep, before the completion check —
	// crash transitions apply even to a step that then terminates.
	// Implementations that mutate possession wholesale must call
	// st.InvalidateCounts.
	PreStep(step int, st *State)
	// StopEarly runs after the completion check; returning true stops the
	// run with StopEarly (the fault engine's graceful settlement).
	StopEarly(step int, st *State) bool
	// OnDeliver observes each delivered move just before possession grows.
	OnDeliver(step int, mv core.Move)
	// OnIdleLimit is consulted when idle patience is exhausted; returning
	// true stops the run with StopEarly instead of StopStalled.
	OnIdleLimit(step int, st *State) bool
}

// Observer receives per-step callbacks from the kernel. A nil Observer is
// free: the kernel guards every callback behind a nil check and allocates
// nothing on its behalf. Implementations must not retain the delivered
// slice past OnStep nor mutate the state.
type Observer interface {
	// OnStep runs at the end of every executed timestep, idle steps
	// included (delivered is nil for an idle step).
	OnStep(step int, delivered core.Step, st *State)
	// OnMove runs for every accepted move, after its loss draw and before
	// any delivery of the step applies — st.Possess is the admission-time
	// possession the kernel checked the move against.
	OnMove(step int, mv core.Move, arcID int, lost bool, st *State)
	// OnReject runs for every proposed move the kernel discarded.
	OnReject(step int, mv core.Move, st *State)
}

// StopReason reports why the kernel stopped.
type StopReason int

const (
	// StopDone: the completion predicate held at the top of a timestep.
	StopDone StopReason = iota
	// StopLimit: the step limit was exhausted.
	StopLimit
	// StopStalled: idle patience was exhausted with wants unsatisfied.
	StopStalled
	// StopEarly: the interceptor stopped the run (StopEarly or
	// OnIdleLimit returning true).
	StopEarly
)

// Engine parameterizes one kernel run. Zero-value fields select the
// baseline behavior: static capacities, no loss, no interceptor, no extra
// admission, no observer.
type Engine struct {
	// MaxSteps bounds the run; callers compute their engine's default
	// (Theorem 1 horizon multiples) before invoking the kernel.
	MaxSteps int
	// IdlePatience is the number of consecutive zero-move timesteps
	// tolerated before the run stops with StopStalled.
	IdlePatience int
	// Done is the completion predicate; nil means core.Done.
	Done func(inst *core.Instance, possess []tokenset.Set) bool
	// Capacity supplies per-step effective capacities; nil means the base
	// graph's static capacities.
	Capacity CapacityModel
	// Loss drops accepted moves in transit; nil means lossless.
	Loss LossPolicy
	// Interceptor hooks engine-specific per-step semantics; nil means none.
	Interceptor StepInterceptor
	// Admit, when non-nil, is an extra admission predicate run after the
	// kernel's own checks; it may commit side usage (the underlay engine
	// charges physical links here).
	Admit func(step int, mv core.Move, arcID int) bool
	// Observer receives per-step callbacks; nil costs nothing.
	Observer Observer
}

// Run executes the kernel loop over st, assembling the schedule and move
// counters into res, and reports why it stopped along with the step index
// at that moment. Metrics finalization (Completed, Steps, Moves, pruning)
// is the caller's: engines differ on whether a stalled run finalizes.
//
// Admission enforces, in order: token range, arc existence in the base
// graph, effective capacity, sender possession, then the Admit hook. Each
// proposed move is rejected at most once regardless of how many checks it
// fails.
func (eng *Engine) Run(inst *core.Instance, strat Strategy, st *State, res *Result) (StopReason, int) {
	done := eng.Done
	if done == nil {
		done = core.Done
	}
	ic := eng.Interceptor
	obs := eng.Observer

	// Per-timestep arc usage and effective capacities live in dense slices
	// indexed by the base graph's arc IDs — no per-step map churn. With no
	// capacity model the effective view is the static capacities, copied
	// once (CapsByID is the graph's own storage).
	numArcs := inst.G.NumArcs()
	//ocd:scratch
	eff := make([]int, numArcs)
	if eng.Capacity == nil {
		copy(eff, inst.G.CapsByID())
	}
	//ocd:scratch
	used := make([]int, numArcs)
	// accepted collects a step's admitted moves. It is sized to the
	// proposal count before admission, so it never grows move by move.
	// When a lossless step admits every proposal it is exactly full, and
	// the schedule takes it as that step (the next step allocates afresh)
	// instead of copying it out; otherwise it is reused like the scratch
	// buffers below, and the schedule gets an exact-size copy.
	var accepted core.Step
	// acceptedIDs/delivered are scratch buffers reused across steps. Only
	// the loss policy and the observer read the accepted moves' arc IDs,
	// so without either acceptedIDs stays empty.
	//ocd:scratch
	var acceptedIDs []int
	//ocd:scratch
	var delivered core.Step
	keepIDs := eng.Loss != nil || obs != nil
	idle := 0

	step := 0
	for ; step < eng.MaxSteps; step++ {
		if ic != nil {
			ic.PreStep(step, st)
		}
		if done(inst, st.Possess) {
			return StopDone, step
		}
		if ic != nil && ic.StopEarly(step, st) {
			return StopEarly, step
		}

		view := inst
		if eng.Capacity != nil {
			view = eng.Capacity.StepView(step, st, eff)
		}
		st.Inst = view
		st.Step = step
		proposed := strat.Plan(st)

		clear(used)
		if cap(accepted) < len(proposed) {
			accepted = make(core.Step, 0, len(proposed))
		}
		accepted = accepted[:0]
		acceptedIDs = acceptedIDs[:0]
		// Round Robin and Random propose each arc's moves back to back, so
		// the previous move's arc lookup is reused while (From, To) repeats.
		lastFrom, lastTo, lastID := -1, -1, -1
		for _, mv := range proposed {
			id := -1
			if mv.Token >= 0 && mv.Token < inst.NumTokens {
				if mv.From != lastFrom || mv.To != lastTo {
					lastFrom, lastTo, lastID = mv.From, mv.To, inst.G.ArcID(mv.From, mv.To)
				}
				id = lastID
			}
			ok := id >= 0 && used[id] < eff[id] && st.Possess[mv.From].Has(mv.Token)
			if ok && eng.Admit != nil {
				ok = eng.Admit(step, mv, id)
			}
			if !ok {
				res.Rejected++
				if obs != nil {
					obs.OnReject(step, mv, st)
				}
				continue
			}
			used[id]++
			accepted = append(accepted, mv)
			if keepIDs {
				acceptedIDs = append(acceptedIDs, id)
			}
		}

		if len(accepted) == 0 {
			idle++
			if idle > eng.IdlePatience {
				if ic != nil && ic.OnIdleLimit(step, st) {
					return StopEarly, step
				}
				return StopStalled, step
			}
			res.Schedule.Append(nil)
			if obs != nil {
				obs.OnStep(step, nil, st)
			}
			continue
		}
		idle = 0

		// Without a loss policy every accepted move is delivered and the
		// schedule's copy comes straight from accepted.
		kept := accepted
		if eng.Loss != nil {
			delivered = delivered[:0]
			for i, mv := range accepted {
				lost := eng.Loss.Lost(step, mv, acceptedIDs[i])
				if lost {
					res.Lost++
				} else {
					delivered = append(delivered, mv)
				}
				if obs != nil {
					obs.OnMove(step, mv, acceptedIDs[i], lost, st)
				}
			}
			kept = delivered
		} else if obs != nil {
			for i, mv := range accepted {
				obs.OnMove(step, mv, acceptedIDs[i], false, st)
			}
		}
		// The schedule keeps an exact-size step — no buffer's spare
		// capacity escapes, and a fully-lost step records nil.
		var out core.Step
		switch {
		case len(kept) == 0:
		case eng.Loss == nil && len(accepted) == cap(accepted):
			out, accepted = accepted, nil
		default:
			out = make(core.Step, len(kept))
			copy(out, kept)
		}
		for _, mv := range out {
			if ic != nil {
				ic.OnDeliver(step, mv)
			}
			st.Deliver(mv)
		}
		res.Schedule.Append(out)
		if obs != nil {
			obs.OnStep(step, out, st)
		}
	}
	return StopLimit, step
}

// Finalize fills the summary fields of a completed (non-stalled) run:
// Completed, Steps, Moves (delivered plus lost), and the pruning post-pass.
func (res *Result) Finalize(inst *core.Instance, possess []tokenset.Set,
	done func(inst *core.Instance, possess []tokenset.Set) bool, prune bool) {
	res.Completed = done(inst, possess)
	res.Steps = res.Schedule.Makespan()
	res.Moves = res.Schedule.Moves() + res.Lost
	if prune && res.Completed {
		res.PrunedMoves = core.Prune(inst, res.Schedule).Moves()
	}
}

// RateLossPolicy is the §6 independent-loss model: each accepted move is
// dropped with probability rate, drawn from the dedicated loss stream for
// seed (LossRand) so the strategy stream is unperturbed. A non-positive
// rate returns nil — the kernel then makes no draws at all, exactly as when
// loss is disabled.
func RateLossPolicy(rate float64, seed int64) LossPolicy {
	if rate <= 0 {
		return nil
	}
	return &rateLoss{rate: rate, rng: LossRand(seed)}
}

type rateLoss struct {
	rate float64
	rng  *rand.Rand
}

func (l *rateLoss) Lost(int, core.Move, int) bool { return l.rng.Float64() < l.rate }

// WrapStrategy lifts a per-run strategy wrapper into a Factory: the inner
// factory builds its strategy, then wrap decorates it. Wrappers compose
// facade names (e.g. retry(roundrobin), oracle(global)) that experiment
// tables key on, so Name composition is pinned by tests.
func WrapStrategy(inner Factory, wrap func(inst *core.Instance, s Strategy) (Strategy, error)) Factory {
	return func(inst *core.Instance, rng *rand.Rand) (Strategy, error) {
		s, err := inner(inst, rng)
		if err != nil {
			return nil, err
		}
		return wrap(inst, s)
	}
}
