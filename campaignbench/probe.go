package main

import (
	"bytes"
	"context"
	"sync"
	"time"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
	"swarmfuzz/internal/vec"
)

// The decorators in this file wrap the program's public seams —
// telemetry.Recorder, sim.Controller and comms.Bus — so the benchmark
// can time layers from the outside without changing any program code.
// Each forwards every call unchanged; the decorator tests pin that
// they leave every result digest as it was.

// probeRecorder decorates the production telemetry.Telemetry of one
// Grid call (a "pass"). It notes when missions are admitted — the
// first missions_planned — and keeps every sim_wall_seconds value the
// simulator observes.
type probeRecorder struct {
	telemetry.Recorder

	mu      sync.Mutex
	planned time.Time
	// onPlanned, when set, runs once at the first missions_planned; a
	// setup-only pass uses it to cancel the campaign before any
	// mission is fuzzed.
	onPlanned func()
	simWall   []float64
}

// Add implements telemetry.Recorder.
func (p *probeRecorder) Add(name string, delta int64) {
	if name == telemetry.MMissionsPlanned {
		p.mu.Lock()
		first := p.planned.IsZero()
		if first {
			p.planned = time.Now()
		}
		fn := p.onPlanned
		p.mu.Unlock()
		if first && fn != nil {
			fn()
		}
	}
	p.Recorder.Add(name, delta)
}

// Observe implements telemetry.Recorder.
func (p *probeRecorder) Observe(name string, v float64) {
	if name == telemetry.MSimWallSeconds {
		p.mu.Lock()
		p.simWall = append(p.simWall, v)
		p.mu.Unlock()
	}
	p.Recorder.Observe(name, v)
}

// pass is one call into the program with its own registry, probe and,
// when traced, an in-memory span trace.
type pass struct {
	reg   *telemetry.Registry
	trace *bytes.Buffer
	rec   *probeRecorder
	start time.Time
}

// newPass builds the telemetry for one call: the production
// telemetry.Telemetry registry, with a trace writer to memory only
// when traced.
func newPass(traced bool) *pass {
	p := &pass{reg: telemetry.NewRegistry()}
	var tel *telemetry.Telemetry
	if traced {
		p.trace = &bytes.Buffer{}
		tel = telemetry.New(p.reg, p.trace)
	} else {
		tel = telemetry.New(p.reg, nil)
	}
	p.rec = &probeRecorder{Recorder: tel}
	p.start = time.Now()
	return p
}

// counter returns the pass's value of the named counter.
func (p *pass) counter(name string) int64 { return p.reg.Counter(name).Value() }

// plannedAt is when the pass admitted its missions (zero if it did
// not).
func (p *pass) plannedAt() time.Time {
	p.rec.mu.Lock()
	defer p.rec.mu.Unlock()
	return p.rec.planned
}

// setup returns the wall seconds from the pass start until missions
// were admitted, or -1 when none were.
func (p *pass) setup() float64 {
	at := p.plannedAt()
	if at.IsZero() {
		return -1
	}
	return at.Sub(p.start).Seconds()
}

// spans reads back the pass's trace (nil when untraced).
func (p *pass) spans() []telemetry.SpanEvent {
	if p.trace == nil {
		return nil
	}
	spans, _ := telemetry.ReadSpans(bytes.NewReader(p.trace.Bytes()))
	return spans
}

// cancelOnPlanned returns a context that is cancelled as soon as the
// pass admits its missions, and its cancel function.
func (p *pass) cancelOnPlanned(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	p.rec.onPlanned = cancel
	return ctx, cancel
}

// sampler times one call in every `every`; not safe for concurrent
// use, which the sequential clean sweep never needs.
type sampler struct {
	every, n, sampled int
	ns                int64
}

func (s *sampler) due() bool {
	s.n++
	return s.n%s.every == 0
}

func (s *sampler) add(t0 time.Time) {
	s.ns += time.Since(t0).Nanoseconds()
	s.sampled++
}

// meanNS is the mean wall ns of the sampled calls (0 when none).
func (s *sampler) meanNS() float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.sampled)
}

// probeController decorates a sim.Controller, timing sampled Command
// calls.
type probeController struct {
	sim.Controller
	sampler
}

// Command implements sim.Controller.
func (c *probeController) Command(p sim.Perception, neighbors []comms.State, w *sim.World) vec.Vec3 {
	if !c.due() {
		return c.Controller.Command(p, neighbors, w)
	}
	t0 := time.Now()
	v := c.Controller.Command(p, neighbors, w)
	c.add(t0)
	return v
}

// probeBus decorates a comms.Bus, timing sampled ExchangeInto calls,
// the only exchange the simulator makes.
type probeBus struct {
	comms.Bus
	sampler
}

// ExchangeInto implements comms.Bus.
func (b *probeBus) ExchangeInto(published []comms.State) [][]comms.State {
	if !b.due() {
		return b.Bus.ExchangeInto(published)
	}
	t0 := time.Now()
	out := b.Bus.ExchangeInto(published)
	b.add(t0)
	return out
}
