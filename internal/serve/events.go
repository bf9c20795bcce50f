package serve

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"swarmfuzz/internal/chaos"
	"swarmfuzz/internal/telemetry"
)

// Event is one entry of a job's progress stream, served live over
// GET /v1/jobs/{id}/events and persisted to events.jsonl. Sequence
// numbers are per-job, contiguous and stable across daemon restarts,
// so a client can resume a stream without duplicates.
type Event struct {
	// Seq orders the job's events (1-based).
	Seq int `json:"seq"`
	// Type is "state" for lifecycle transitions, "progress" for
	// counter updates.
	Type string `json:"type"`
	// State is the new lifecycle state (state events).
	State State `json:"state,omitempty"`
	// Error carries the failure of a failed transition.
	Error string `json:"error,omitempty"`
	// Counters is the job's cumulative counter snapshot (progress
	// events): missions planned/done/cracked, sim runs, checkpoints.
	Counters map[string]int64 `json:"counters,omitempty"`
	// TimeUnix is the wall-clock second the event was recorded.
	TimeUnix int64 `json:"time_unix,omitempty"`
}

// hub fans a job's events out to any number of subscribers while
// persisting them. It keeps the full in-process history so a
// subscriber arriving mid-job replays everything before going live;
// events emitted by an earlier incarnation of the daemon are read from
// the store (their seq numbers are all <= base).
type hub struct {
	id    string
	store *Store
	log   *telemetry.Logger

	mu      sync.Mutex
	base    int // events persisted by previous daemon incarnations
	history []Event
	subs    map[chan Event]struct{}
	closed  bool
}

func newHub(id string, base int, store *Store, log *telemetry.Logger) *hub {
	return &hub{id: id, base: base, store: store, log: log, subs: map[chan Event]struct{}{}}
}

// publish appends the event to the history, persists it and delivers
// it to every live subscriber. A subscriber too slow to keep up with
// its buffer is dropped (it can reconnect and replay by seq). The event
// is persisted under the hub lock, so events.jsonl lists events in seq
// order even when several goroutines publish at once.
func (h *hub) publish(typ string, mutate func(*Event)) {
	e := Event{Type: typ, TimeUnix: time.Now().Unix()}
	if mutate != nil {
		mutate(&e)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	e.Seq = h.base + len(h.history) + 1
	h.history = append(h.history, e)
	var dropped []chan Event
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			dropped = append(dropped, ch)
		}
	}
	for _, ch := range dropped {
		delete(h.subs, ch)
		close(ch)
	}
	if h.store != nil {
		if data, err := json.Marshal(e); err == nil {
			if err := h.store.AppendEvent(h.id, data); err != nil {
				h.log.Warnf("job %s: persist event: %v", h.id, err)
			}
		}
	}
	h.mu.Unlock()
}

// close ends the stream: subscribers drain what they have and stop.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// subscribe returns the in-process history so far plus a live channel
// (nil when the stream is already closed) and an unsubscribe func.
func (h *hub) subscribe() (history []Event, live chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	history = append([]Event(nil), h.history...)
	if h.closed {
		return history, nil, func() {}
	}
	ch := make(chan Event, 256)
	h.subs[ch] = struct{}{}
	return history, ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}

// progressCounters are the pipeline counters a job's progress events
// snapshot. Mission-level counters trigger an event; the rest ride
// along in the snapshot.
var progressCounters = []string{
	telemetry.MMissionsPlanned,
	telemetry.MMissionsDone,
	telemetry.MMissionsCracked,
	telemetry.MMissionErrors,
	telemetry.MSimRuns,
	telemetry.MSeedsScheduled,
	telemetry.MCheckpointSaves,
	telemetry.MCheckpointLoads,
}

// progressTriggers are the counter increments that emit a progress
// event. Mission completions bound the stream's volume to a few events
// per mission rather than one per simulation.
var progressTriggers = map[string]bool{
	telemetry.MMissionsPlanned: true,
	telemetry.MMissionsDone:    true,
	telemetry.MCheckpointSaves: true,
}

// jobRecorder is the telemetry.Recorder a job runs under: it forwards
// everything to the daemon's shared recorder (so /metrics aggregates
// across jobs) while keeping per-job counts and publishing a progress
// event whenever a mission settles. It is also the job's liveness
// surface: every counter increment beats the stall watchdog, and the
// chaos harness can wedge the job here ("job:<counter>" stall points)
// to prove the watchdog notices.
type jobRecorder struct {
	telemetry.Recorder
	hub    *hub
	beat   func()               // watchdog heartbeat; nil when the watchdog is off
	chaos  *chaos.Injector      // stall hook points; nil when chaos is off
	tracer *telemetry.Telemetry // per-job span stream; nil disables tracing
	root   atomic.Uint64        // the job root span's ID, once started

	mu     sync.Mutex
	counts map[string]int64
	gauges map[string]float64
}

func newJobRecorder(parent telemetry.Recorder, h *hub) *jobRecorder {
	return &jobRecorder{
		Recorder: telemetry.OrNop(parent),
		hub:      h,
		counts:   map[string]int64{},
		gauges:   map[string]float64{},
	}
}

// StartSpan implements telemetry.Recorder, routing spans into the
// job's own trace stream. The first span started (the engine's "job"
// span) becomes the trace root; later parentless spans — the campaign
// and checkpoint spans the pipeline starts with parent 0 — are
// reparented under it, which is what stitches one job's spans into a
// single tree.
func (r *jobRecorder) StartSpan(parent telemetry.SpanID, name string, attrs ...telemetry.Attr) telemetry.Span {
	if r.tracer == nil {
		return r.Recorder.StartSpan(parent, name, attrs...)
	}
	if parent == 0 {
		parent = telemetry.SpanID(r.root.Load())
	}
	span := r.tracer.StartSpan(parent, name, attrs...)
	r.root.CompareAndSwap(0, uint64(span.ID()))
	return span
}

// Add implements telemetry.Recorder.
func (r *jobRecorder) Add(name string, delta int64) {
	if r.chaos != nil {
		// Stall before the heartbeat: an injected wedge must look like
		// silence to the watchdog, not like one last sign of life.
		r.chaos.Stall("job:" + name)
	}
	if r.beat != nil {
		r.beat()
	}
	r.Recorder.Add(name, delta)
	r.mu.Lock()
	r.counts[name] += delta
	r.mu.Unlock()
	if progressTriggers[name] {
		r.hub.publish("progress", func(e *Event) { e.Counters = r.snapshot() })
	}
}

// Set implements telemetry.Recorder, keeping the per-job value — the
// shared gauge is last-writer-wins across concurrent jobs, so a job's
// own search-progress gauges (best SPV objective) live here.
func (r *jobRecorder) Set(name string, v float64) {
	if r.beat != nil {
		r.beat()
	}
	r.Recorder.Set(name, v)
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe implements telemetry.Recorder; histogram samples count as
// heartbeats too.
func (r *jobRecorder) Observe(name string, v float64) {
	if r.beat != nil {
		r.beat()
	}
	r.Recorder.Observe(name, v)
}

// snapshot copies the job's progress counters.
func (r *jobRecorder) snapshot() map[string]int64 {
	out := make(map[string]int64, len(progressCounters))
	r.mu.Lock()
	for _, name := range progressCounters {
		if v := r.counts[name]; v != 0 {
			out[name] = v
		}
	}
	r.mu.Unlock()
	return out
}

// allCounters copies every counter the job has incremented.
func (r *jobRecorder) allCounters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for name, v := range r.counts {
		out[name] = v
	}
	return out
}

// allGauges copies every gauge the job has set.
func (r *jobRecorder) allGauges() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for name, v := range r.gauges {
		out[name] = v
	}
	return out
}
