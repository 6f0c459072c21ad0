package main

// Host-speed probe. The benchmark shares its machine with other work, and
// the program's speed drifts with what the host leaves it of the CPU's
// caches and memory: over a few minutes, runs of the same sweep on the
// same inputs took from 2.6 to 3.5 s, and a run's median over its sweeps
// cannot take out a slowdown that outlasts the run. A fixed piece of the
// benchmark's own work that does what the program does — a breadth-first
// search over adjacency arrays, bitset unions and counts, map updates and
// a small sort — slows with it, in part (README.md). Every time the benchmark reports is
// scaled by the probe: a time t measured while the probe took p (the
// median over the run) reads t·probeRef/p, its value at the probe's
// reference speed.
//
// The probe runs between cells on the worker's goroutine, never inside a
// timed cell, and its work allocates nothing, so it changes neither the heap the
// garbage collector paces itself by nor the program's work. Its inputs
// are fixed: a change to the program cannot change the probe.

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"time"
)

const (
	// probeRef is the probe time the reported timings are scaled to.
	probeRef = 700 * time.Microsecond
	// probeEvery spaces the probes taken between cells.
	probeEvery = 20 * time.Millisecond

	probeVertices = 1 << 17 // probe graph: 6 random out-arcs per vertex
	probeVisit    = 1500    // vertices a probe's search expands
	probeSets     = 4096    // 512-bit sets
	probeKeys     = 8192
)

// probeState is the probe's fixed inputs, its scratch space, and the probe
// times taken so far.
type probeState struct {
	off, adj []int32
	dist     []int32
	queue    []int32
	sets     [][8]uint64
	counts   map[int32]int32
	order    []int32
	round    int
	sink     int

	mu    sync.Mutex
	last  time.Time
	times []time.Duration
}

// prober is the process's one probe; its inputs are built at start-up.

var prober = func() *probeState {
	r := rand.New(rand.NewSource(7))
	p := &probeState{
		off:    make([]int32, probeVertices+1),
		dist:   make([]int32, probeVertices),
		queue:  make([]int32, 0, probeVertices),
		sets:   make([][8]uint64, probeSets),
		counts: make(map[int32]int32, probeKeys),
		order:  make([]int32, 512),
	}
	for v := 0; v < probeVertices; v++ {
		p.off[v] = int32(len(p.adj))
		for k := 0; k < 6; k++ {
			p.adj = append(p.adj, int32(r.Intn(probeVertices)))
		}
	}
	p.off[probeVertices] = int32(len(p.adj))
	for k := range p.dist {
		p.dist[k] = -1
	}
	for k := int32(0); k < probeKeys; k++ {
		p.counts[k*7919] = k
	}
	return p
}()

// probe runs the fixed work once and returns how long it took.
func (p *probeState) probe() time.Duration {
	p.round++
	start := time.Now()
	// Breadth-first search from a rotating source.
	src := int32(p.round * 977 % probeVertices)
	q := append(p.queue[:0], src)
	p.dist[src] = 0
	for h := 0; h < len(q) && h < probeVisit; h++ {
		v := q[h]
		for _, w := range p.adj[p.off[v]:p.off[v+1]] {
			if p.dist[w] < 0 {
				p.dist[w] = p.dist[v] + 1
				q = append(q, w)
			}
		}
	}
	// Bitset unions and counts.
	c := 0
	for k := 0; k < 500; k++ {
		a, b := &p.sets[(k*31+p.round)&(probeSets-1)], &p.sets[(k*17+7)&(probeSets-1)]
		for j := range a {
			a[j] |= b[j] ^ uint64(k)
			c += bits.OnesCount64(a[j] &^ b[j])
		}
	}
	// Updates of existing map keys.
	for k := 0; k < 500; k++ {
		p.counts[int32((k*13+p.round)&(probeKeys-1))*7919] += int32(c)
	}
	// A small sort.
	for i := range p.order {
		p.order[i] = int32((i*2654435761 + p.round) & 0xffff)
	}
	slices.Sort(p.order)
	d := time.Since(start)
	for _, v := range q {
		p.dist[v] = -1
	}
	p.sink += c + len(q)
	return d
}

// maybe runs a probe if none ran in the last probeEvery.
func (p *probeState) maybe() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if time.Since(p.last) < probeEvery {
		return
	}
	p.times = append(p.times, p.probe())
	p.last = time.Now()
}

// median is the median probe time so far.
func (p *probeState) median() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ps []float64
	for _, t := range p.times {
		ps = append(ps, float64(t))
	}
	return time.Duration(median(ps))
}

// scale is the factor that scales the times measured in this run to the
// reference probe speed: probeRef ÷ the median probe time.
func (p *probeState) scale() float64 {
	return float64(probeRef) / float64(p.median())
}
