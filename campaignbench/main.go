// Command campaignbench measures SwarmFuzz campaigns end to end and
// layer by layer. It drives the program through its production entry
// points (experiments.Grid, sim.Run, svg.Build, svg.ScheduleK), checks
// every round's outputs against recorded digests, and prints one JSON
// result line. See README.md for the workloads, the metrics and how to
// compare two commits.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

// reference is the recorded output of one workload at its default
// mission seed.
type reference struct {
	MissionSeed uint64            `json:"mission_seed"`
	Counts      map[string]int64  `json:"counts"`
	Digests     map[string]string `json:"digests"`
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name        = flag.String("workload", "", "workload to run: "+workloadNames)
		runSeed     = flag.Int64("seed", 1, "run seed; orders the workload's independent units")
		seconds     = flag.Float64("seconds", 35, "measurement budget in seconds")
		trace       = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		missionSeed = flag.Uint64("mission-seed", 0, "base mission seed (0 = the recorded one); a seed without a recorded reference is checked against the run's own first round")
		work        = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for artifacts and profiles")
	)
	flag.Parse()
	w := workloads[*name]
	if w == nil {
		fmt.Fprintf(os.Stderr, "campaignbench: unknown workload %q (want one of %s)\n", *name, workloadNames)
		return 2
	}
	e := &env{
		workers:     min(2, runtime.NumCPU()),
		missionSeed: *missionSeed,
		runSeed:     *runSeed,
		work:        filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	if e.missionSeed == 0 {
		e.missionSeed = w.defaultSeed
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	ref, err := loadReference(w, e.missionSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	res, digests, err := measure(context.Background(), w, e, *seconds, *trace == 1, ref)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	if digests != nil {
		line, _ := json.Marshal(digests)
		fmt.Printf("digests %s\n", line)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// loadReference returns the workload's recorded outputs, or nil when
// the mission seed is not the recorded one: the run then checks every
// round against its own first round instead.
func loadReference(w *workload, missionSeed uint64) (*reference, error) {
	var refs map[string]*reference
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if ref := refs[w.name]; ref != nil && ref.MissionSeed == missionSeed {
		return ref, nil
	}
	return nil, nil
}

// digest is a short content hash.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// measure runs the rounds of one run, with their setup-only passes,
// derives its metrics and returns them with the first round's digests.
// An untraced run spends its budget on untraced rounds. A traced run
// spends a third on untraced rounds and a third on traced rounds, the
// two sides of the tracing overhead, and the last third on probed
// rounds, which give the per-layer metrics.
func measure(ctx context.Context, w *workload, e *env, seconds float64, traced bool,
	ref *reference) (*result, *reference, error) {
	if ref == nil {
		fmt.Fprintf(os.Stderr, "campaignbench: mission seed %d has no recorded reference; rounds are checked against the run's first round\n", e.missionSeed)
	}
	res := &result{Metrics: map[string]metric{}}
	var setups []float64
	var profiles []string
	one := func(lv level) (*roundResult, error) {
		// An untraced run's setup-only passes go before its rounds, one
		// group per round, so they sample the host over the whole run.
		for i := 0; i < w.setupPasses && !traced; i++ {
			su, err := w.setupPass(ctx, e)
			if err != nil {
				return nil, err
			}
			setups = append(setups, su)
		}
		e.round++
		// Start every round from a collected heap, so no round pays for
		// the garbage of the one before (the forensic rounds leave tens
		// of MB of it).
		runtime.GC()
		if lv != levelProbe {
			return w.round(ctx, e, lv)
		}
		prof := filepath.Join(e.work, fmt.Sprintf("cpu%d.pprof", e.round))
		f, err := os.Create(prof)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		r, err := w.round(ctx, e, lv)
		pprof.StopCPUProfile()
		profiles = append(profiles, prof)
		return r, err
	}
	// check scores one round against the reference (or, for an
	// unrecorded mission seed, against the run's first round).
	var first *reference
	check := func(r *roundResult) {
		res.Attempted += r.missions
		if first == nil {
			first = &reference{MissionSeed: e.missionSeed, Counts: r.counts, Digests: r.digests}
		}
		if ref == nil {
			ref = first
		}
		failed, msgs := compare(r, ref)
		res.Failed += failed
		fmt.Fprintf(os.Stderr, "campaignbench: round %d: %d missions in %.3fs wall (%.3fs without steal), %.3fs CPU, %.3fs steal, %d steps, %d failed\n",
			e.round, r.missions, r.wall, r.runWall(), r.cpu, r.steal, r.steps, failed)
		for _, m := range msgs {
			fmt.Fprintln(os.Stderr, "campaignbench: check:", m)
		}
	}
	// rounds runs rounds while another like the last one still ends
	// within the budget, stopping at the first failure.
	start := time.Now()
	rounds := func(lv level, budget float64) []*roundResult {
		var out []*roundResult
		for res.Failed == 0 && (len(out) == 0 || time.Since(start).Seconds()+out[len(out)-1].wall <= budget) {
			r, err := one(lv)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaignbench: round:", err)
				res.Attempted += w.expect
				res.Failed += w.expect
				break
			}
			check(r)
			out = append(out, r)
		}
		return out
	}
	var plain, tracedRounds, probed []*roundResult
	if traced {
		plain = rounds(levelPlain, seconds/3)
		tracedRounds = rounds(levelTrace, 2*seconds/3)
		probed = rounds(levelProbe, seconds)
	} else {
		plain = rounds(levelPlain, seconds)
	}
	res.Correct = first != nil && res.Failed == 0 && (!traced || len(probed) > 0)
	switch {
	case !res.Correct:
	case traced:
		if err := perLayer(res, plain, tracedRounds, probed, profiles); err != nil {
			return nil, nil, err
		}
	default:
		endToEnd(res, plain, setups)
	}
	return res, first, nil
}

// compare checks a round against the reference and returns the number
// of failed missions with a line per mismatch. A mismatch on a
// mission's own digest fails that mission; any other mismatch fails
// the whole round. A resume pass that rewrote bytes fails the whole
// round whatever the reference holds, so a reference taken from the
// run's own first round cannot excuse it.
func compare(r *roundResult, ref *reference) (int, []string) {
	var msgs []string
	bad := map[string]bool{}
	whole := false
	if d := r.digests[resumeDiffersKey]; d != "" {
		msgs = append(msgs, "resume pass changed "+d)
		whole = true
	}
	for _, k := range r.degraded {
		bad[k] = true
		msgs = append(msgs, k+": mission degraded")
	}
	for _, k := range unionKeys(r.digests, ref.Digests) {
		if got, want := r.digests[k], ref.Digests[k]; got != want {
			msgs = append(msgs, fmt.Sprintf("%s: digest %q, want %q", k, got, want))
			if strings.HasPrefix(k, missionKeyPrefix) {
				bad[k] = true
			} else {
				whole = true
			}
		}
	}
	for _, k := range unionKeys(r.counts, ref.Counts) {
		if got, want := r.counts[k], ref.Counts[k]; got != want {
			msgs = append(msgs, fmt.Sprintf("count %s: %d, want %d", k, got, want))
			whole = true
		}
	}
	if whole {
		return r.missions, msgs
	}
	return min(len(bad), r.missions), msgs
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// endToEnd derives the user-facing metrics of an untraced run. The
// throughput and cost metrics are totals over all the run's rounds and
// the latency quantile pools every simulation of the run: the host's
// speed drifts on a scale of seconds, and totals average its fast and
// slow stretches where a median over a few rounds lands on one or the
// other.
func endToEnd(res *result, rounds []*roundResult, setups []float64) {
	var missions, steps int64
	var cpu float64
	for _, r := range rounds {
		setups = append(setups, r.setup...)
		missions += int64(r.missions)
		steps += r.steps
		cpu += r.cpu
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("missions_per_s", "1/s", throughput(rounds))
	put("cpu_s_per_mission", "s", cpu/float64(missions))
	put("step_ns", "ns", cpu*1e9/float64(steps))
	put("sim_ms_p95", "ms", simLatencyMS(rounds, 0.95))
	put("peak_rss_mb", "MB", peakRSSMB())
}

// simLatencyMS is the q-quantile of the wall latency of every
// simulation of the rounds, in ms. A simulation's share of its round's
// steal is not known, so its latency sheds the round's share.
func simLatencyMS(rounds []*roundResult, q float64) float64 {
	var ms []float64
	for _, r := range rounds {
		scale := 1e3 * r.runWall() / r.wall
		for _, s := range r.simWall {
			ms = append(ms, s*scale)
		}
	}
	return quantile(ms, q)
}

// throughput is the missions the rounds completed per wall second of
// their program calls, steal taken out.
func throughput(rounds []*roundResult) float64 {
	var missions, wall float64
	for _, r := range rounds {
		missions += float64(r.missions)
		wall += r.runWall()
	}
	return missions / wall
}

// perLayer derives the per-layer metrics of a traced run: the medians
// of the probed rounds' span, counter and decorator metrics, the CPU
// profile's buckets, the tracing overhead, which compares the traced
// rounds with the untraced ones, and the untraced rounds' median
// simulation latency.
func perLayer(res *result, plain, traced, probed []*roundResult, profiles []string) error {
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for _, l := range layerMetrics {
		var vs []float64
		for _, r := range probed {
			vs = append(vs, r.layers[l.name])
		}
		put(l.name, l.unit, median(vs))
	}

	buckets, err := profileBuckets(profiles)
	if err != nil {
		return err
	}
	var steps, missions float64
	for _, r := range probed {
		steps += float64(r.steps)
		missions += float64(r.missions)
	}
	total := 0.0
	for _, ns := range buckets {
		total += ns
	}
	for _, b := range stepBuckets {
		put(bucketMetric(b), "ns/step", buckets[b]/steps)
	}
	for _, b := range missionBuckets {
		put(bucketMetric(b), "ns/mission", buckets[b]/missions)
	}
	put("profile.unattributed_frac", "ratio", buckets[bucketUnattributed]/total)

	put("trace.overhead_frac", "ratio", 1-throughput(traced)/throughput(plain))
	// The median simulation latency lands on whichever of the host's
	// speed modes held most of the run's simulations, so it is reported
	// here, without a bound, and not among the end-to-end metrics.
	put("sim_ms_p50", "ms", simLatencyMS(plain, 0.50))
	return nil
}

// bucketMetric names a profile bucket's metric: a layer's own CPU is
// "<layer>.ns", a part of a layer's "<layer>.<part>_ns".
func bucketMetric(bucket string) string {
	if strings.Contains(bucket, ".") {
		return bucket + "_ns"
	}
	return bucket + ".ns"
}

// layerMetrics are the round-level per-layer metrics, by name and unit.
var layerMetrics = []struct{ name, unit string }{
	{"experiments.scan_s", "s"},
	{"experiments.worker_busy_frac", "ratio"},
	{"experiments.checkpoint_s", "s"},
	{"experiments.resume_s", "s"},
	{"experiments.artifact_bytes", "bytes"},
	{"fuzz.clean_run_s", "s"},
	{"fuzz.seed_scheduling_s", "s"},
	{"fuzz.gradient_search_s", "s"},
	{"fuzz.seeds_scheduled", "count"},
	{"fuzz.seeds_searched", "count"},
	{"fuzz.crack_per_seed", "ratio"},
	{"opt.iters", "count"},
	{"opt.sims_per_iter", "ratio"},
	{"sim.runs", "count"},
	{"sim.steps", "count"},
	{"sim.steps_per_run", "count"},
	{"sim.busy_s", "s"},
	{"flock.command_ns", "ns"},
	{"comms.exchange_ns", "ns"},
	{"sim.clean_run_ms", "ms"},
	{"svg.schedule_ms", "ms"},
}

// median of vs (0 when empty).
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the linearly interpolated q-quantile of vs (0 when
// empty).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
