package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ocd/internal/heuristics"
)

// endToEnd computes the metrics of the untraced sweeps. Each cell's time
// is its median over the sweeps (see cellTimes), scaled by the host-speed
// probe; sweep_s is their sum, the wall time of one sweep on one worker,
// and the cell percentiles are taken over them. setup_s is scaled the same
// way. Memory figures are taken per sweep and the median over sweeps
// is reported. The behaviour metrics come from the checked outcomes, which
// every timed sweep matched exactly.
func (b *bench) endToEnd() map[string]metric {
	var allocs, rss []float64
	for _, s := range b.plain {
		allocs = append(allocs, float64(s.alloc)/1e6)
		rss = append(rss, s.rss)
	}
	scale := prober.scale()
	cells := cellTimes(b.plain)
	sweep := 0.0
	for i := range cells {
		cells[i] *= scale
		sweep += cells[i]
	}
	var setups []float64
	for _, d := range b.setupDur {
		setups = append(setups, d.Seconds()*scale)
	}

	// Makespan and bandwidth are taken relative to the instance's lower
	// bounds, so that they measure the schedules rather than the size of
	// the instances a seed drew. Instances with nothing to send (a bound
	// of 0) have no ratio and are left out.
	var completed, delivered, wanted float64
	var steps, moves, bounded float64
	for i, r := range b.checked {
		c := b.sw.cells[i]
		wanted += float64(c.wanted)
		delivered += r.out.DeliveredFrac * float64(c.wanted)
		if r.out.Completed {
			completed++
			if c.lb.makespan > 0 && c.lb.bandwidth > 0 {
				bounded++
				steps += float64(r.out.Steps) / float64(c.lb.makespan)
				moves += float64(r.out.Moves) / float64(c.lb.bandwidth)
			}
		}
	}
	return map[string]metric{
		"sweep_s":           {sweep / 1e3, "s"},
		"cell_p50_ms":       {quantile(cells, 0.5), "ms"},
		"cell_p90_ms":       {quantile(cells, 0.9), "ms"},
		"setup_s":           {median(setups), "s"},
		"alloc_mb":          {median(allocs), "MB"},
		"peak_rss_mb":       {median(rss), "MB"},
		"makespan_over_lb":  {ratio(steps, bounded), "ratio"},
		"bandwidth_over_lb": {ratio(moves, bounded), "ratio"},
		"completed_frac":    {ratio(completed, float64(len(b.checked))), "ratio"},
		"delivered_frac":    {ratio(delivered, wanted), "ratio"},
	}
}

// cellTimes is each cell's median time over the sweeps, in ms. A cell's
// time in one sweep depends on where the garbage collector's cycles fall,
// and on the host; the median over sweeps that are seconds apart is its
// typical cost.
func cellTimes(ss []sample) []float64 {
	cells := make([]float64, len(ss[0].runs))
	ts := make([]float64, len(ss))
	for i := range cells {
		for k, s := range ss {
			ts[k] = float64(s.runs[i].dur) / float64(time.Millisecond)
		}
		cells[i] = median(ts)
	}
	return cells
}

// layerMetrics computes the per-layer metrics of the traced sweeps: each
// is computed per sweep, and the median over sweeps is reported. Layers a
// workload never calls read 0.
func (b *bench) layerMetrics() map[string]metric {
	per := map[string][]float64{}
	units := map[string]string{}
	add := func(name, unit string, v float64) {
		per[name] = append(per[name], v)
		units[name] = unit
	}

	// Times are scaled by the host-speed probe, like the end-to-end ones.
	scale := prober.scale()
	sec := func(d time.Duration) float64 { return d.Seconds() * scale }
	for _, tr := range b.setupTr {
		sum := spanSums(tr.spans)
		for _, name := range []string{"topology.gen", "workload.build", "core.lower_bounds", "fault.plan_build"} {
			add(name+"_ms", "ms", sec(sum[name].total)*1e3)
		}
	}

	for _, s := range b.tracedS {
		sum := spanSums(s.trace.spans)
		var proposedSim, proposedFault, steps, admitted, rejected, delivered, pruned float64
		var lost, retrans, wasted, faultAdmitted float64
		var nodes, iters, flips, warm float64
		proposedBy := map[string]float64{}
		for i, r := range s.runs {
			c := b.sw.cells[i]
			proposedBy[strings.TrimPrefix(c.meta.heuristic, "retry-")] += float64(r.plans.proposed)
			o := r.out
			switch c.kind {
			case kindFault:
				proposedFault += float64(o.Moves + o.Rejected)
				faultAdmitted += float64(o.Moves)
				lost += float64(o.Lost)
				retrans += float64(o.Retrans)
				wasted += float64(o.Wasted)
			case kindCertify:
				nodes += float64(o.Nodes)
				iters += float64(o.LPIters)
				flips += float64(o.BoundFlips)
				warm += float64(o.LPWarmStarts)
			case kindSim:
				proposedSim += float64(o.Moves + o.Rejected)
				steps += float64(o.Steps)
				admitted += float64(o.Moves)
				rejected += float64(o.Rejected)
				delivered += float64(o.Delivered)
				pruned += float64(o.Pruned)
			}
		}
		for _, h := range heuristics.Names() {
			st := sum["heuristics."+h+".plan"]
			add("heuristics."+h+".plan_s", "s", sec(st.total))
			add("heuristics."+h+".plan_us_per_step", "us", ratio(sec(st.total)*1e6, float64(st.count)))
			add("heuristics."+h+".proposed", "count", proposedBy[h])
		}
		simSelf := sum["sim.run"].self
		add("sim.self_s", "s", sec(simSelf))
		add("sim.ns_per_move", "ns", ratio(sec(simSelf)*1e9, proposedSim))
		add("sim.steps", "count", steps)
		add("sim.admitted", "count", admitted)
		add("sim.rejected", "count", rejected)
		add("sim.admit_yield", "ratio", ratio(admitted, proposedSim))
		add("core.prune_s", "s", sec(sum["core.prune"].total))
		add("core.prune_keep", "ratio", ratio(pruned, delivered))

		faultSelf := sum["fault.run"].self
		add("fault.self_s", "s", sec(faultSelf))
		add("fault.ns_per_move", "ns", ratio(sec(faultSelf)*1e9, proposedFault))
		add("fault.lost", "count", lost)
		add("fault.retransmissions", "count", retrans)
		add("fault.wasted", "count", wasted)
		// Useful deliveries are the ones no crash wiped out.
		add("fault.useful_frac", "ratio", ratio(faultAdmitted-lost-wasted, faultAdmitted))

		add("runner.busy_frac", "ratio", ratio(float64(sum["cell"].total), float64(b.workers)*float64(s.wall)))

		add("exact.focd_ms", "ms", sec(sum["exact.focd"].total)*1e3)
		add("exact.eocd_ms", "ms", sec(sum["exact.eocd"].total)*1e3)
		add("ilp.build_ms", "ms", sec(sum["ilp.build"].total)*1e3)
		add("ilp.solve_ms", "ms", sec(sum["ilp.solve"].total)*1e3)
		add("ilp.nodes", "count", nodes)
		add("lp.iterations", "count", iters)
		add("lp.bound_flips", "count", flips)
		add("lp.warm_starts", "count", warm)

		// The share of cell time spent inside the spans of layer calls.
		cellTime := sum["cell"].total
		add("trace.accounted_frac", "ratio", ratio(float64(cellTime-sum["cell"].self), float64(cellTime)))
	}

	out := map[string]metric{}
	for name, vs := range per {
		out[name] = metric{median(vs), units[name]}
	}
	out["trace.overhead_frac"] = metric{ratio(sweepTime(b.tracedS), sweepTime(b.plain)) - 1, "ratio"}
	tel := 0.0
	if len(b.noReg) > 0 {
		tel = ratio(sweepTime(b.plain), sweepTime(b.noReg)) - 1
	}
	out["telemetry.overhead_frac"] = metric{tel, "ratio"}
	out["host.probe_us"] = metric{float64(prober.median()) / 1e3, "us"}
	return out
}

// spanStat aggregates the spans of one name: count, total duration, and
// self time (duration minus the time covered by direct children).
type spanStat struct {
	count       int
	total, self time.Duration
}

func spanSums(spans []span) map[string]spanStat {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		st.count++
		st.total += s.dur()
		st.self += s.dur() - child[i]
		out[s.Name] = st
	}
	return out
}

// sweepTime is the sum of the cells' median times over the sweeps, in ms.
func sweepTime(ss []sample) float64 {
	t := 0.0
	for _, c := range cellTimes(ss) {
		t += c
	}
	return t
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) of this process
// to its current RSS. Where /proc is unavailable the mark keeps the
// process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS, in MB: VmHWM from /proc/self/status, or getrusage's
// process-wide peak where /proc is unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
