// Package sim executes distribution strategies over OCD instances one
// timestep at a time, producing schedules in the §3.1 model.
//
// The engine owns the ground truth (current possession per vertex) and
// enforces the Capacity and Possession constraints on whatever a strategy
// proposes, so a buggy strategy cannot produce an invalid schedule — the
// offending moves are rejected and reported in the run statistics. Each
// heuristic in internal/heuristics declares the knowledge it relies on
// (§4.1/§5.1) through the view it reads; the engine simply hands out a
// read-only view of the state.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/tokenset"
)

// State is the read-only view a strategy receives each timestep.
//
// Which fields a strategy may consult is a modelling decision documented on
// the strategy itself: Round Robin only reads Possess[v] for its own v;
// Random additionally reads the possession of out-neighbors; Local reads
// the global aggregate vectors; Bandwidth and Global read everything
// (they are the paper's global-knowledge heuristics).
type State struct {
	Inst *core.Instance
	// Possess is the current possession p_i(v) per vertex. Strategies must
	// not mutate these sets. Engines that mutate them directly (instead of
	// through Deliver) must call InvalidateCounts afterwards.
	Possess []tokenset.Set
	// Step is the index of the timestep being planned (0-based).
	Step int
	// Rand is the per-run PRNG for randomized strategies.
	Rand *rand.Rand

	// counts caches the per-token holder counts |{v : t ∈ p(v)}|, computed
	// lazily by HaveCounts and maintained incrementally by Deliver.
	counts []int
	// holders caches, per token t, the vertex set {v : t ∈ p(v)}: the
	// token-major transpose of Possess, built lazily by Holders and
	// maintained incrementally by Deliver.
	holders []tokenset.Set
}

// Missing returns w(v) \ p(v) for vertex v as a fresh set.
func (s *State) Missing(v int) tokenset.Set {
	return s.Inst.Want[v].Difference(s.Possess[v])
}

// Lacking returns T \ p(v): every token v does not yet possess.
func (s *State) Lacking(v int) tokenset.Set {
	full := tokenset.Full(s.Inst.NumTokens)
	full.DifferenceWith(s.Possess[v])
	return full
}

// MissingInto overwrites dst with w(v) \ p(v) without allocating. dst must
// have universe NumTokens.
func (s *State) MissingInto(v int, dst tokenset.Set) {
	dst.SetDifference(s.Inst.Want[v], s.Possess[v])
}

// LackingInto overwrites dst with T \ p(v) without allocating. dst must
// have universe NumTokens.
func (s *State) LackingInto(v int, dst tokenset.Set) {
	dst.Fill()
	dst.DifferenceWith(s.Possess[v])
}

// HaveCounts returns, for each token t, the number of vertices currently
// possessing t (the rarity signal shared by the rarest-first heuristics).
// The first call computes the counts in O(n·T/64); afterwards Deliver keeps
// them current in O(1) per delivery, so per-step strategies no longer pay
// the full recount. The returned slice is the state's own cache: read-only.
func (s *State) HaveCounts() []int {
	if s.counts == nil {
		s.counts = make([]int, s.Inst.NumTokens)
		for _, p := range s.Possess {
			p.ForEach(func(t int) bool {
				s.counts[t]++
				return true
			})
		}
	}
	return s.counts
}

// Holders returns, for each token t, the set of vertices currently
// possessing t, as a bitset over vertices (universe N). Token-major
// questions — "who holds t", "who wants t and lacks it" — then cost n/64
// word operations instead of n set probes. Like HaveCounts, the first call
// builds the index in O(n·T/64 + Σ|p(v)|) and Deliver keeps it current.
// The returned sets are the state's own cache: read-only.
func (s *State) Holders() []tokenset.Set {
	if s.holders == nil {
		n := len(s.Possess)
		s.holders = tokenset.NewSlab(s.Inst.NumTokens, n)
		for v, p := range s.Possess {
			p.ForEach(func(t int) bool {
				s.holders[t].Add(v)
				return true
			})
		}
	}
	return s.holders
}

// Deliver records the delivery of mv: the destination gains the token and
// the cached have-counts and holder index are updated incrementally.
// Engines must route all possession growth through this method (or call
// InvalidateCounts after mutating Possess directly).
func (s *State) Deliver(mv core.Move) {
	if s.Possess[mv.To].Insert(mv.Token) && s.counts != nil {
		s.counts[mv.Token]++
	}
	if s.holders != nil {
		s.holders[mv.Token].Add(mv.To)
	}
}

// InvalidateCounts drops the cached have-counts and holder index; the next
// HaveCounts or Holders call recomputes them. Needed after wholesale
// possession edits such as the fault engine's state-loss events.
func (s *State) InvalidateCounts() {
	s.counts = nil
	s.holders = nil
}

// Strategy plans the moves of one timestep. Implementations may keep
// per-run state (e.g. Round Robin's per-arc cursor); a fresh Strategy is
// created for every run via its Factory.
type Strategy interface {
	// Name identifies the heuristic in tables and logs.
	Name() string
	// Plan returns the moves to attempt this timestep. The engine clips
	// them against capacity and possession.
	Plan(st *State) []core.Move
}

// Factory creates a fresh strategy instance for a run. Strategies that
// precompute static structure (e.g. all-pairs distances for Bandwidth)
// do so here.
type Factory func(inst *core.Instance, rng *rand.Rand) (Strategy, error)

// Failer is implemented by strategies that can fail internally and want
// the cause surfaced when a run stalls (e.g. the fault package's retry
// wrapper after exhausting MaxAttempts). Engines join a non-nil Err into
// the stall error; a strategy that has not failed returns nil.
type Failer interface {
	// Err reports why the strategy stopped proposing moves, or nil.
	Err() error
}

// Result summarizes a completed run.
type Result struct {
	Strategy string
	Schedule *core.Schedule
	// Completed reports whether every want set was satisfied within the
	// step limit.
	Completed bool
	// Steps is the makespan (number of timesteps used).
	Steps int
	// Moves is the bandwidth consumed (total moves).
	Moves int
	// PrunedMoves is the bandwidth after the §5.1 pruning post-pass.
	PrunedMoves int
	// Rejected counts strategy-proposed moves the engine had to discard
	// for violating capacity or possession. Zero for correct strategies.
	Rejected int
	// Lost counts accepted moves dropped by the loss model (Options.
	// LossRate); they consumed capacity but delivered nothing.
	Lost int
}

// Options configures a run.
type Options struct {
	// MaxSteps caps the schedule length. Zero means the Theorem 1 horizon
	// m·(n−1).
	MaxSteps int
	// Seed seeds the run's PRNG.
	Seed int64
	// Prune controls whether Result.PrunedMoves is computed.
	Prune bool
	// IdlePatience is the number of consecutive zero-move timesteps
	// tolerated before the run is declared stalled. Idle steps count
	// toward the makespan; the §4.2 "propagate knowledge, then plan"
	// oracle relies on this to model its diameter-long listening phase.
	IdlePatience int
	// LossRate, when positive, drops each accepted move with this
	// probability before delivery (the §6 "lossy channels" open problem).
	// Lost moves consume capacity and count as bandwidth and in
	// Result.Lost, but deliver nothing; the schedule records only the
	// successful moves so it always validates against the static model.
	LossRate float64
	// Done overrides the completion predicate (default: every want set is
	// satisfied). The §6 encoding extension uses this for "any k of n
	// coded tokens" semantics.
	Done func(inst *core.Instance, possess []tokenset.Set) bool
	// Observer, when non-nil, receives the kernel's per-step callbacks
	// (internal/trace.StepCollector is the standard consumer). A nil
	// Observer adds no work to the hot loop.
	Observer Observer
}

// ErrStalled is returned when a strategy makes no progress for a full
// timestep while wants remain unsatisfied (the engine also stops at
// MaxSteps without this error, reporting Completed=false).
var ErrStalled = errors.New("sim: strategy stalled with unsatisfied wants")

// lossStreamSalt separates the loss model's PRNG stream from the strategy
// stream. Drawing both from one source would make enabling LossRate change
// every randomized strategy's decisions for the same seed.
const lossStreamSalt int64 = 0x6c6f7373 // "loss"

// LossRand returns the engine's dedicated loss-draw PRNG for a run seed.
// Exported so alternative engines (internal/dynamic) drop losses from the
// identical stream.
func LossRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ lossStreamSalt))
}

// Run executes the strategy produced by factory on inst until every want is
// satisfied or the step limit is reached. It is the baseline composition
// over the step-kernel: static capacities, the §6 independent-loss model,
// no interceptor.
func Run(inst *core.Instance, factory Factory, opts Options) (*Result, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		// Theorem 1 horizon plus the permitted idle prefix.
		maxSteps = inst.TheoremOneHorizon() + opts.IdlePatience
		if maxSteps < 1 {
			maxSteps = 1
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	strat, err := factory(inst, rng)
	if err != nil {
		return nil, fmt.Errorf("sim: create strategy: %w", err)
	}
	done := opts.Done
	if done == nil {
		done = core.Done
	}

	st := &State{
		Inst:    inst,
		Possess: inst.InitialPossession(),
		Rand:    rng,
	}
	res := &Result{Strategy: strat.Name(), Schedule: &core.Schedule{}}
	eng := Engine{
		MaxSteps:     maxSteps,
		IdlePatience: opts.IdlePatience,
		Done:         done,
		Loss:         RateLossPolicy(opts.LossRate, opts.Seed),
		Observer:     opts.Observer,
	}
	reason, stepAt := eng.Run(inst, strat, st, res)
	if reason == StopStalled {
		// A stalled run reports its partial schedule without finalized
		// summary metrics, matching the engine's historical contract.
		err := fmt.Errorf("%w: step %d, strategy %s", ErrStalled, stepAt, strat.Name())
		if fs, ok := strat.(Failer); ok {
			if ferr := fs.Err(); ferr != nil {
				err = errors.Join(err, ferr)
			}
		}
		return res, err
	}
	res.Finalize(inst, st.Possess, done, opts.Prune)
	return res, nil
}
