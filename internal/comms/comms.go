// Package comms models the inter-drone communication system of a
// distributed swarm (step 2 of the periodic loop in Fig. 1 of the
// paper): each tick, every member broadcasts its perceived physical
// state, and receives the states of the other members.
//
// The paper — like SwarmLab — assumes perfect, instantaneous state
// exchange, which PerfectBus implements. Bus is an interface so a
// caller can decorate the exchange, e.g. to time it.
//
// ExchangeInto writes all observations into one flat reusable arena
// owned by the bus and returns slices that alias it, so a steady-state
// simulation tick allocates nothing. A bus instance is not safe for
// concurrent use.
package comms

import "swarmfuzz/internal/vec"

// State is the physical state a swarm member broadcasts: its perceived
// (GPS) position and current velocity. Note Position is the *perceived*
// position — under a GPS spoofing attack the broadcast carries the
// spoofed value, which is exactly how SPVs propagate.
type State struct {
	// ID is the broadcasting drone's index within the swarm.
	ID int
	// Position is the broadcast position in metres (ENU).
	Position vec.Vec3
	// Velocity is the broadcast velocity in m/s.
	Velocity vec.Vec3
	// Time is the mission time of the broadcast in seconds.
	Time float64
}

// Bus delivers one tick of state exchange. ExchangeInto takes the
// states published this tick — one per *active* drone; crashed drones
// stop broadcasting, so IDs need not be contiguous — and returns, for
// each publisher (positionally aligned with the input), the neighbour
// states it observes this tick. Senders and receivers are matched by
// State.ID. The returned slices never include the receiver's own state.
//
// The returned slices are backed by a single reusable arena owned by
// the bus: they are valid only until the next ExchangeInto call, and
// callers that retain observations across ticks must copy them.
//
// Implementations must be deterministic: the same sequence of calls on
// a bus constructed with the same parameters yields the same
// observations.
type Bus interface {
	ExchangeInto(published []State) [][]State
}

// arena is the flat reusable storage backing ExchangeInto. All
// observations of one exchange live contiguously in flat; rows holds
// one sub-slice per receiver. Capacity is reserved up front by reset
// so rows handed out mid-exchange are never invalidated by growth.
type arena struct {
	flat []State
	rows [][]State
}

// reset prepares the arena for n receivers and at most maxObs total
// observations.
func (a *arena) reset(n, maxObs int) {
	if cap(a.rows) < n {
		a.rows = make([][]State, n)
	}
	a.rows = a.rows[:n]
	if a.flat == nil || cap(a.flat) < maxObs {
		c := maxObs
		if c < 1 {
			c = 1
		}
		a.flat = make([]State, 0, c)
	}
	a.flat = a.flat[:0]
}

// seal fixes row i to the observations appended since mark. The full
// slice expression caps the row so appends by callers cannot clobber
// the next receiver's observations.
func (a *arena) seal(i, mark int) {
	a.rows[i] = a.flat[mark:len(a.flat):len(a.flat)]
}

// PerfectBus delivers every broadcast instantly and reliably. It is the
// paper's communication model.
type PerfectBus struct {
	arena arena
}

var _ Bus = (*PerfectBus)(nil)

// NewPerfectBus returns a PerfectBus.
func NewPerfectBus() *PerfectBus { return &PerfectBus{} }

// ExchangeInto implements Bus. The returned slices alias the bus's
// arena and are valid until the next exchange.
func (b *PerfectBus) ExchangeInto(published []State) [][]State {
	n := len(published)
	b.arena.reset(n, n*(n-1))
	for i := 0; i < n; i++ {
		mark := len(b.arena.flat)
		// Bulk-copy the runs between self-ID matches: same rows as
		// filtering one state at a time, but via memmove.
		id := published[i].ID
		run := 0
		for j := 0; j < n; j++ {
			if published[j].ID == id {
				b.arena.flat = append(b.arena.flat, published[run:j]...)
				run = j + 1
			}
		}
		b.arena.flat = append(b.arena.flat, published[run:n]...)
		b.arena.seal(i, mark)
	}
	return b.arena.rows
}
