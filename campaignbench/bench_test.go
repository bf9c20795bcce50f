package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
)

// testEnv is a run environment with scratch space under the test's
// temporary directory.
func testEnv(t *testing.T, missionSeed uint64) *env {
	t.Helper()
	return &env{workers: 2, missionSeed: missionSeed, runSeed: 1, work: t.TempDir()}
}

// TestDecoratorsChangeNoResult runs a small input of each workload
// plainly, traced through the probe recorder with its in-memory trace,
// and probed (the clean sweep adds its Controller and Bus decorators),
// and requires identical digests and counts.
func TestDecoratorsChangeNoResult(t *testing.T) {
	cases := []struct {
		name  string
		seed  uint64
		round func(context.Context, *env, level) (*roundResult, error)
	}{
		// Mission 2 at N=5 cracks after 6 iterations.
		{"fuzz_n5", 2, fuzzSpec{n: 5, missions: 1, distance: 10}.round},
		// Mission 3 at N=15 cracks after 1 iteration: forensics,
		// atlas, checkpoint and resume in well under a second of search.
		{"fuzz_n15_forensic", 3, fuzzSpec{n: 15, missions: 1, distance: 10, forensic: true}.round},
		{"clean_sweep", 1, sweepSpec{sizes: []int{5, 15}, perSize: 2, distance: 10}.round},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := testEnv(t, c.seed)
			plain, err := c.round(context.Background(), e, levelPlain)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.digests) == 0 || plain.counts["sim_runs"] == 0 {
				t.Fatalf("round produced no outputs: %+v", plain)
			}
			for _, lv := range []level{levelTrace, levelProbe} {
				e.round++
				traced, err := c.round(context.Background(), e, lv)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain.digests, traced.digests) {
					t.Errorf("level %d: digests differ:\nplain  %v\ntraced %v", lv, plain.digests, traced.digests)
				}
				if !reflect.DeepEqual(plain.counts, traced.counts) {
					t.Errorf("level %d: counts differ:\nplain  %v\ntraced %v", lv, plain.counts, traced.counts)
				}
				if traced.layers["sim.runs"] == 0 {
					t.Errorf("level %d: traced round reported no layer metrics: %v", lv, traced.layers)
				}
			}
		})
	}
}

// TestTracedRoundLayers checks the span-derived metrics of a traced
// forensic round against what the workload must produce.
func TestTracedRoundLayers(t *testing.T) {
	e := testEnv(t, 3)
	r, err := fuzzSpec{n: 15, missions: 1, distance: 10, forensic: true}.round(context.Background(), e, levelProbe)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"experiments.scan_s", "experiments.worker_busy_frac",
		"experiments.checkpoint_s", "experiments.resume_s", "experiments.artifact_bytes",
		"fuzz.clean_run_s", "fuzz.seed_scheduling_s", "fuzz.gradient_search_s",
		"fuzz.seeds_searched", "fuzz.crack_per_seed", "opt.iters", "opt.sims_per_iter"} {
		if r.layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.layers[name])
		}
	}
	if got := r.counts["resume_checkpoint_loads"]; got != 1 {
		t.Errorf("resume pass loaded %d checkpoints, want 1", got)
	}
	if got := r.counts["resume_sim_runs"]; got != 0 {
		t.Errorf("resume pass ran %d simulations, want 0", got)
	}
}

func TestCompare(t *testing.T) {
	ref := &reference{
		Counts:  map[string]int64{"sim_runs": 10},
		Digests: map[string]string{"cell": "a", "mission/n5_seed1": "b", "mission/n5_seed2": "c"},
	}
	round := func() *roundResult {
		r := newRound()
		r.missions = 2
		r.counts["sim_runs"] = 10
		for k, v := range ref.Digests {
			r.digests[k] = v
		}
		return r
	}
	if failed, msgs := compare(round(), ref); failed != 0 || len(msgs) != 0 {
		t.Errorf("identical round: failed %d, %v", failed, msgs)
	}
	r := round()
	r.digests["mission/n5_seed2"] = "x"
	if failed, _ := compare(r, ref); failed != 1 {
		t.Errorf("one mission digest off: failed %d, want 1", failed)
	}
	r = round()
	r.degraded = []string{"mission/n5_seed1"}
	if failed, _ := compare(r, ref); failed != 1 {
		t.Errorf("one mission degraded: failed %d, want 1", failed)
	}
	r = round()
	r.counts["sim_runs"] = 11
	if failed, _ := compare(r, ref); failed != 2 {
		t.Errorf("count off: failed %d, want the whole round (2)", failed)
	}
	r = round()
	delete(r.digests, "cell")
	if failed, _ := compare(r, ref); failed != 2 {
		t.Errorf("cell digest missing: failed %d, want the whole round (2)", failed)
	}
	// A run on a mission seed without a recorded reference checks its
	// rounds against its own first round; a resume pass that rewrote
	// bytes must fail even then.
	r = round()
	r.digests[resumeDiffersKey] = "atlas.jsonl"
	self := &reference{Counts: r.counts, Digests: r.digests}
	if failed, _ := compare(r, self); failed != 2 {
		t.Errorf("resume rewrote bytes, checked against itself: failed %d, want the whole round (2)", failed)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		want  string
		stack []string
	}{
		{"runtime.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime.gc", []string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "swarmfuzz/internal/flightlog.(*MissionLog).write"}},
		{"runtime.copy", []string{"runtime.duffcopy", "swarmfuzz/internal/flock.(*Controller).Command"}},
		{"rng.seed", []string{"math/rand.seedrand", "math/rand.(*rngSource).Seed", "swarmfuzz/internal/rng.New", "swarmfuzz/internal/rng.DeriveN", "swarmfuzz/internal/sim.NewStepper"}},
		{"gps", []string{"math/rand.(*Rand).NormFloat64", "swarmfuzz/internal/rng.(*Source).Normal", "swarmfuzz/internal/gps.(*Sensor).Read", "swarmfuzz/internal/sim.(*Stepper).Step"}},
		{"flock", []string{"math.Sqrt", "swarmfuzz/internal/vec.Vec3.Norm", "swarmfuzz/internal/flock.(*Controller).Terms", "swarmfuzz/internal/sim.(*Stepper).Step"}},
		{"sim.body", []string{"swarmfuzz/internal/sim.(*Body).Step", "swarmfuzz/internal/sim.(*Stepper).Step"}},
		{"sim.obstacle", []string{"swarmfuzz/internal/sim.(*World).NearestObstacle", "swarmfuzz/internal/sim.(*Stepper).Step"}},
		{"sim.collide", []string{"swarmfuzz/internal/sim.(*droneCollider).collide", "swarmfuzz/internal/sim.(*Stepper).Step"}},
		{"sim.collide", []string{"swarmfuzz/internal/spatial.(*Grid).Insert", "swarmfuzz/internal/sim.(*droneCollider).collide"}},
		{"sim.step_self", []string{"swarmfuzz/internal/sim.(*Stepper).Step", "swarmfuzz/internal/sim.Run"}},
		{"report", []string{"encoding/json.(*decodeState).object", "swarmfuzz/internal/flightlog/report.Generate"}},
		{"flightlog", []string{"syscall.write", "os.(*File).Write", "bufio.(*Writer).Flush", "swarmfuzz/internal/flightlog.(*MissionLog).Close"}},
		{"svg", []string{"swarmfuzz/internal/graph.PageRank", "swarmfuzz/internal/svg.ScheduleK"}},
		{"bench", []string{"crypto/sha256.block", "main.digest"}},
		{"unattributed", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: campaignbench
Type: cpu
Duration: 1s, Total samples = 60ms ( 6.00%)
-----------+-------------------------------------------------------
      30ms   swarmfuzz/internal/flock.(*Controller).Terms
             swarmfuzz/internal/sim.(*Stepper).Step
-----------+-------------------------------------------------------
      20ms   runtime.duffcopy
             swarmfuzz/internal/sim.(*Stepper).Step
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.schedule
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"flock": 30e6, "runtime.copy": 20e6, "unattributed": 10e6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
}

// TestProfileBucketsCoverWorkloads profiles one full round of every
// workload and requires the buckets to claim at least 95% of the CPU
// samples.
func TestProfileBucketsCoverWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles full workload rounds")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool pprof not available")
	}
	for _, name := range []string{"fuzz_n5", "fuzz_n15_forensic", "clean_sweep"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			e := testEnv(t, w.defaultSeed)
			prof := filepath.Join(t.TempDir(), "cpu.pprof")
			f, err := os.Create(prof)
			if err != nil {
				t.Fatal(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				t.Fatal(err)
			}
			// A clean sweep round is short; repeat it for enough samples.
			rounds := 1
			if name == "clean_sweep" {
				rounds = 8
			}
			for i := 0; i < rounds; i++ {
				e.round++
				if _, err := w.round(context.Background(), e, levelProbe); err != nil {
					pprof.StopCPUProfile()
					t.Fatal(err)
				}
			}
			pprof.StopCPUProfile()
			f.Close()
			buckets, err := profileBuckets([]string{prof})
			if err != nil {
				t.Fatal(err)
			}
			total := 0.0
			for _, ns := range buckets {
				total += ns
			}
			if total == 0 {
				t.Fatal("profile holds no samples")
			}
			if frac := buckets[bucketUnattributed] / total; frac >= 0.05 {
				t.Errorf("unattributed share %.3f, want < 0.05 (buckets %v)", frac, buckets)
			}
		})
	}
}
