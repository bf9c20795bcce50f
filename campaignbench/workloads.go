package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/graph"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// env is what a workload needs from the run driving it.
type env struct {
	// workers is the campaign's Workers: never above the machine's
	// CPU count, and at most 2 so every machine runs the same shape.
	workers int
	// missionSeed is the base mission seed of the workload's inputs.
	missionSeed uint64
	// runSeed orders the workload's independent units (see README).
	runSeed int64
	// work is the scratch directory for artifacts, inside the checkout.
	work string
	// round numbers the rounds of the run, for scratch names.
	round int
}

// roundResult is one round of a workload: the program's work on the
// workload's full, fixed input set.
type roundResult struct {
	missions int
	// usage covers the program calls only, not the benchmark's
	// digesting or clean-up.
	usage
	steps   int64
	setup   []float64
	simWall []float64
	digests map[string]string
	counts  map[string]int64
	// degraded lists the digest keys of missions the program reported
	// as errored.
	degraded []string
	// layers holds the traced round's span and decorator metrics.
	layers map[string]float64
}

func newRound() *roundResult {
	return &roundResult{
		digests: map[string]string{},
		counts:  map[string]int64{},
		layers:  map[string]float64{},
	}
}

// missionKeyPrefix marks the digest keys that belong to a single
// mission: a mismatch on one fails that mission only, any other
// mismatch fails the whole round.
const missionKeyPrefix = "mission/"

// resumeDiffersKey is present in a forensic round's digests only when
// the resume pass changed a byte the first pass wrote, or restated a
// different cell; its value lists what changed.
const resumeDiffersKey = "resume/differs"

// level is how much a round attaches on top of the production
// telemetry.
type level int

const (
	// levelPlain is the production telemetry.Telemetry, with no trace.
	levelPlain level = iota
	// levelTrace adds a trace writer to memory, whose spans give the
	// span-derived layer metrics.
	levelTrace
	// levelProbe adds, on top of the trace, the CPU profile (started
	// by the run) and the clean sweep's Controller and Bus decorators.
	levelProbe
)

// workload is one benchmark input set and the program path it drives.
type workload struct {
	name        string
	defaultSeed uint64
	// setupPasses is how many setup-only passes precede each round of
	// an untraced run.
	setupPasses int
	// expect is the number of missions a round attempts.
	expect    int
	setupPass func(ctx context.Context, e *env) (float64, error)
	round     func(ctx context.Context, e *env, lv level) (*roundResult, error)
}

var workloads = map[string]*workload{
	"fuzz_n5":           fuzzN5.workload("fuzz_n5"),
	"fuzz_n15_forensic": fuzzN15Forensic.workload("fuzz_n15_forensic"),
	"clean_sweep":       cleanSweep.workload("clean_sweep"),
}

// usage is what a stretch of work cost, in seconds.
type usage struct {
	wall, cpu float64
	// steal is the vCPU time the hypervisor gave to other guests while
	// this machine's vCPUs wanted to run, summed over vCPUs.
	steal float64
}

func (u usage) plus(v usage) usage {
	return usage{wall: u.wall + v.wall, cpu: u.cpu + v.cpu, steal: u.steal + v.steal}
}

// runWall is the wall time the work would have taken had the
// hypervisor stolen nothing: the process wanted cpu+steal seconds of
// vCPU time and got cpu, so it ran for wall × cpu/(cpu+steal). On a
// shared host the steal of a sustained run reaches a third of the
// vCPU time and swings from run to run; the wall time users feel
// from the program itself is what the benchmark reports.
func (u usage) runWall() float64 {
	if u.steal <= 0 || u.cpu <= 0 {
		return u.wall
	}
	return u.wall * u.cpu / (u.cpu + u.steal)
}

// meter measures the usage of a stretch of work.
type meter struct {
	t0           time.Time
	cpu0, steal0 float64
}

func startMeter() meter {
	return meter{t0: time.Now(), cpu0: processCPU(), steal0: stealSeconds()}
}

func (m meter) stop() usage {
	return usage{
		wall:  time.Since(m.t0).Seconds(),
		cpu:   processCPU() - m.cpu0,
		steal: stealSeconds() - m.steal0,
	}
}

// processCPU is the process's user+sys CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds is the machine's total steal time so far, from the
// aggregate line of /proc/stat (in USER_HZ = 100 ticks per second), or
// 0 where the kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// --- fuzz workloads ----------------------------------------------------

// fuzzSpec is a SwarmFuzz campaign cell run through experiments.Grid.
type fuzzSpec struct {
	n, missions int
	distance    float64
	// seed is the default base mission seed.
	seed uint64
	// forensic archives flight logs and post-mortems, writes the atlas
	// and checkpoints, then repeats the Grid call to resume from them.
	forensic bool
}

var (
	fuzzN5          = fuzzSpec{n: 5, missions: 3, distance: 10, seed: 2}
	fuzzN15Forensic = fuzzSpec{n: 15, missions: 4, distance: 10, seed: 3, forensic: true}
)

func (s fuzzSpec) workload(name string) *workload {
	return &workload{
		name:        name,
		defaultSeed: s.seed,
		setupPasses: 2,
		expect:      s.missions,
		setupPass:   s.setupPass,
		round:       s.round,
	}
}

// config is the production campaign configuration of one pass.
func (s fuzzSpec) config(e *env, p *pass, dir string) experiments.Config {
	cfg := experiments.DefaultConfig(s.missions)
	cfg.SwarmSizes = []int{s.n}
	cfg.SpoofDistances = []float64{s.distance}
	cfg.BaseSeed = e.missionSeed
	cfg.Workers = e.workers
	cfg.Telemetry = p.rec
	if s.forensic {
		cfg.Checkpoint = filepath.Join(dir, "checkpoint")
		cfg.AtlasPath = filepath.Join(dir, "atlas.jsonl")
		cfg.FlightDir = filepath.Join(dir, "flights")
		cfg.Postmortem = true
	}
	return cfg
}

// setupPass runs Grid until it admits its missions, then cancels it
// before any mission is fuzzed, and returns the set-up wall time.
func (s fuzzSpec) setupPass(ctx context.Context, e *env) (float64, error) {
	dir := filepath.Join(e.work, "setup")
	defer os.RemoveAll(dir)
	p := newPass(false)
	ctx, cancel := p.cancelOnPlanned(ctx)
	defer cancel()
	_, err := experiments.Grid(ctx, s.config(e, p, dir), fuzz.SwarmFuzz{})
	if err == nil {
		return 0, errors.New("setup pass: campaign ran to completion instead of stopping at admission")
	}
	su := p.setup()
	if !errors.Is(err, context.Canceled) || su < 0 {
		return 0, fmt.Errorf("setup pass: %w", err)
	}
	return su, nil
}

func (s fuzzSpec) round(ctx context.Context, e *env, lv level) (*roundResult, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("round%d", e.round))
	defer os.RemoveAll(dir)
	r := newRound()
	traced := lv >= levelTrace

	p := newPass(traced)
	m := startMeter()
	cells, err := experiments.Grid(ctx, s.config(e, p, dir), fuzz.SwarmFuzz{})
	r.usage = m.stop()
	if err != nil {
		return nil, err
	}
	cell := cells[0]
	r.missions = len(cell.Outcomes)
	r.steps = p.counter(telemetry.MSimSteps)
	r.setup = []float64{p.setup()}
	r.simWall = p.rec.simWall
	for _, name := range []string{telemetry.MSimRuns, telemetry.MSimSteps, telemetry.MSearchIters,
		telemetry.MSeedsScheduled, telemetry.MSVGBuilds, telemetry.MSeedsCracked, telemetry.MMissionsCracked} {
		r.counts[name] = p.counter(name)
	}
	if err := digestCell(r, "", cell); err != nil {
		return nil, err
	}
	forensicSims := 0
	if s.forensic {
		for _, name := range []string{telemetry.MFlightsRecorded, telemetry.MPostmortems, telemetry.MCheckpointSaves} {
			r.counts[name] = p.counter(name)
		}
		for _, o := range cell.Outcomes {
			if o.Found || o.Err != "" {
				forensicSims++ // the clean re-run
			}
			if o.Found {
				forensicSims++ // the witness run
			}
		}
		if err := digestTree(r, "pass1/", dir); err != nil {
			return nil, err
		}

		// Resume: the same Grid call again, served from the checkpoint.
		p2 := newPass(traced)
		m2 := startMeter()
		cells2, err := experiments.Grid(ctx, s.config(e, p2, dir), fuzz.SwarmFuzz{})
		resume := m2.stop()
		if err != nil {
			return nil, err
		}
		r.usage = r.usage.plus(resume)
		r.counts["resume_"+telemetry.MCheckpointLoads] = p2.counter(telemetry.MCheckpointLoads)
		r.counts["resume_"+telemetry.MSimRuns] = p2.counter(telemetry.MSimRuns)
		if err := digestCell(r, "resume/", cells2[0]); err != nil {
			return nil, err
		}
		if err := digestTree(r, "resume/", dir); err != nil {
			return nil, err
		}
		// The resume pass must leave every byte as the first pass wrote
		// it and restate the same cell; the key is absent when it does.
		var differs []string
		for k, v := range r.digests {
			if rest, ok := strings.CutPrefix(k, "pass1/"); ok && r.digests["resume/"+rest] != v {
				differs = append(differs, rest)
			}
		}
		if r.digests["cell"] != r.digests["resume/cell"] {
			differs = append(differs, "cell")
		}
		if len(differs) > 0 {
			sort.Strings(differs)
			r.digests[resumeDiffersKey] = strings.Join(differs, ",")
		}
		if traced {
			spanLayers(r.layers, p2, e.workers)
			r.layers["experiments.resume_s"] = resume.wall
			r.layers["experiments.artifact_bytes"] = float64(treeSize(dir))
		}
	}
	if traced {
		spanLayers(r.layers, p, e.workers)
		searchSims := r.counts[telemetry.MSimRuns] - p.counter(telemetry.MMissionsPlanned) -
			int64(cell.SkippedUnsafe) - int64(r.missions) - int64(forensicSims)
		counterLayers(r, p, searchSims)
	}
	return r, nil
}

// digestCell records the cell's checkpoint encoding and, for the
// first pass, one digest per mission outcome. The resume pass only
// re-states the cell: its outcomes are covered by the cell digest.
func digestCell(r *roundResult, prefix string, cell *experiments.CampaignResult) error {
	enc, err := experiments.EncodeCell(cell)
	if err != nil {
		return err
	}
	r.digests[prefix+"cell"] = digest(enc)
	if prefix != "" {
		return nil
	}
	for _, o := range cell.Outcomes {
		b, err := json.Marshal(o)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("%sn%d_seed%d", missionKeyPrefix, cell.SwarmSize, o.Seed)
		r.digests[key] = digest(b)
		if o.Err != "" {
			r.degraded = append(r.degraded, key)
		}
	}
	return nil
}

// digestTree records a digest of every file under dir, keyed by its
// slash-separated path below dir.
func digestTree(r *roundResult, prefix, dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		r.digests[prefix+filepath.ToSlash(rel)] = digest(b)
		return nil
	})
}

// treeSize is the total size in bytes of the files under dir.
func treeSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// --- clean sweep ------------------------------------------------------

// sweepSpec runs fuzz steps 1–2 — the clean run with its trajectory,
// the two SVGs and the seed schedule — on every mission of a fixed
// set, with no attacked simulation.
type sweepSpec struct {
	sizes    []int
	perSize  int
	distance float64
}

var cleanSweep = sweepSpec{sizes: []int{5, 10, 15}, perSize: 8, distance: 10}

func (s sweepSpec) workload(name string) *workload {
	return &workload{
		name:        name,
		defaultSeed: 1,
		// Every round measures its own set-up; rounds are short enough
		// that a run holds about a hundred.
		expect: len(s.sizes) * s.perSize,
		round:  s.round,
	}
}

// sweepItem is one mission of the sweep.
type sweepItem struct {
	n    int
	seed uint64
}

// items lists the sweep's missions in the order the run seed picks.
// The set is the same for every run seed; only the order moves.
func (s sweepSpec) items(e *env) []sweepItem {
	var items []sweepItem
	for _, n := range s.sizes {
		for k := 0; k < s.perSize; k++ {
			items = append(items, sweepItem{n: n, seed: e.missionSeed + uint64(k)})
		}
	}
	rand.New(rand.NewSource(e.runSeed)).Shuffle(len(items), func(i, j int) {
		items[i], items[j] = items[j], items[i]
	})
	return items
}

// generate is the sweep's set-up: mission generation.
func generate(items []sweepItem) ([]*sim.Mission, error) {
	missions := make([]*sim.Mission, len(items))
	for i, it := range items {
		m, err := sim.NewMission(sim.DefaultMissionConfig(it.n, it.seed))
		if err != nil {
			return nil, err
		}
		missions[i] = m
	}
	return missions, nil
}

// sweepDigest is what one mission of the sweep is checked on: the
// clean run's verdict and clearances, and the seed schedule in order.
type sweepDigest struct {
	Completed  bool
	Duration   float64
	Clearance  []float64
	Collisions []sim.Collision
	Seeds      []scheduledSeed
}

// scheduledSeed is one entry of the seed schedule. The seed's
// Influence score is left out: graph.PageRank sums edge weights in Go
// map iteration order, so its last bits differ from run to run (see
// README). The order it induces is checked.
type scheduledSeed struct {
	Target, Victim int
	Direction      gps.Direction
	VDO            float64
}

func (s sweepSpec) round(ctx context.Context, e *env, lv level) (*roundResult, error) {
	r := newRound()
	traced := lv >= levelTrace
	items := s.items(e)
	opts := fuzz.DefaultOptions()
	svgCfg := svg.Config{
		SpoofDistance:      s.distance,
		InfluenceThreshold: opts.SVGThreshold,
		PageRank:           graph.DefaultPageRankOptions(),
	}
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return nil, err
	}
	p := newPass(traced)
	run := sim.RunOptions{Controller: ctrl, RecordTrajectory: true, Telemetry: p.rec}
	var pc *probeController
	var pb *probeBus
	if lv == levelProbe {
		pc = &probeController{Controller: ctrl, sampler: sampler{every: 64}}
		pb = &probeBus{Bus: comms.NewPerfectBus(), sampler: sampler{every: 16}}
		run.Controller, run.Bus = pc, pb
	}

	m := startMeter()
	missions, err := generate(items)
	if err != nil {
		return nil, err
	}
	r.setup = []float64{time.Since(m.t0).Seconds()}
	var cleanNS, schedNS int64
	var builds, scheduled, safe int64
	out := make([]sweepDigest, len(missions))
	for i, mission := range missions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := sim.Run(mission, run)
		cleanNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, err
		}
		out[i] = sweepDigest{Completed: res.Completed, Duration: res.Duration,
			Clearance: res.MinClearance, Collisions: res.Collisions}
		if len(res.Collisions) > 0 {
			continue // fuzz rejects the mission at step 1
		}
		safe++
		// Step 2 as fuzz.scheduleSeeds runs it (internal/fuzz/swarmfuzz.go),
		// which is unexported: the ±40 m snapshot window, the svg.Config,
		// both directions and ScheduleK. This block has to be kept in
		// step with it by hand; its digest checks it against itself only.
		t1 := time.Now()
		snap, err := svg.ClosestSnapshotNearObstacle(res.Trajectory, mission, 40)
		if err != nil {
			return nil, err
		}
		graphs := make(map[gps.Direction]*graph.Digraph, 2)
		for _, dir := range []gps.Direction{gps.Right, gps.Left} {
			g, err := svg.Build(ctrl, &mission.World, mission.Axis, snap, dir, svgCfg)
			if err != nil {
				return nil, err
			}
			builds++
			graphs[dir] = g
		}
		seeds, err := svg.ScheduleK(graphs, res.MinClearance, svgCfg.PageRank, opts.TargetsPerVictim)
		if err != nil {
			return nil, err
		}
		schedNS += time.Since(t1).Nanoseconds()
		scheduled += int64(len(seeds))
		for _, sd := range seeds {
			out[i].Seeds = append(out[i].Seeds, scheduledSeed{sd.Target, sd.Victim, sd.Direction, sd.VDO})
		}
	}
	r.usage = m.stop()

	r.missions = len(missions)
	r.steps = p.counter(telemetry.MSimSteps)
	r.simWall = p.rec.simWall
	for i, it := range items {
		b, err := json.Marshal(out[i])
		if err != nil {
			return nil, err
		}
		r.digests[fmt.Sprintf("%sn%d_seed%d", missionKeyPrefix, it.n, it.seed)] = digest(b)
	}
	r.counts[telemetry.MSimRuns] = p.counter(telemetry.MSimRuns)
	r.counts[telemetry.MSimSteps] = r.steps
	r.counts[telemetry.MSearchIters] = p.counter(telemetry.MSearchIters)
	r.counts[telemetry.MSeedsScheduled] = scheduled
	r.counts[telemetry.MSVGBuilds] = builds
	if traced {
		counterLayers(r, p, 0)
		if pc != nil {
			r.layers["flock.command_ns"] = pc.meanNS()
			r.layers["comms.exchange_ns"] = pb.meanNS()
		}
		r.layers["sim.clean_run_ms"] = float64(cleanNS) / 1e6 / float64(len(missions))
		if safe > 0 {
			r.layers["svg.schedule_ms"] = float64(schedNS) / 1e6 / float64(safe)
		}
	}
	return r, nil
}

// workloadNames lists the workloads for messages.
const workloadNames = "fuzz_n5, fuzz_n15_forensic, clean_sweep"
