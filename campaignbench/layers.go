package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"

	"swarmfuzz/internal/telemetry"
)

// spanLayers adds the metrics read from a traced pass's spans: the
// campaign's scan and worker occupancy, the fuzz stage totals and the
// checkpoint I/O.
func spanLayers(layers map[string]float64, p *pass, workers int) {
	var campaignStart, campaignEnd int64
	var busy, searched int64
	stage := map[string]int64{}
	for _, sp := range p.spans() {
		switch sp.Name {
		case "campaign":
			campaignStart, campaignEnd = sp.StartUS, sp.EndUS
		case "mission":
			busy += sp.DurUS
		case "gradient_search":
			searched++
		}
		stage[sp.Name] += sp.DurUS
	}
	us := func(v int64) float64 { return float64(v) / 1e6 }
	layers["fuzz.clean_run_s"] += us(stage["clean_run"])
	layers["fuzz.seed_scheduling_s"] += us(stage["seed_scheduling"])
	layers["fuzz.gradient_search_s"] += us(stage["gradient_search"])
	layers["fuzz.seeds_searched"] += float64(searched)
	layers["experiments.checkpoint_s"] += us(stage["checkpoint_load"] + stage["checkpoint_save"])
	if planned := p.plannedAt(); campaignEnd > 0 && !planned.IsZero() {
		at := planned.UnixMicro()
		layers["experiments.scan_s"] += us(at - campaignStart)
		if campaignEnd > at {
			layers["experiments.worker_busy_frac"] = float64(busy) / float64(int64(workers)*(campaignEnd-at))
		}
	}
}

// counterLayers adds the metrics read from a traced pass's counters
// and simulation wall times. searchSims is the number of attacked
// simulations the parameter search ran.
func counterLayers(r *roundResult, p *pass, searchSims int64) {
	runs := float64(r.counts[telemetry.MSimRuns])
	steps := float64(r.counts[telemetry.MSimSteps])
	iters := float64(r.counts[telemetry.MSearchIters])
	r.layers["sim.runs"] = runs
	r.layers["sim.steps"] = steps
	if runs > 0 {
		r.layers["sim.steps_per_run"] = steps / runs
	}
	busy := 0.0
	for _, v := range r.simWall {
		busy += v
	}
	r.layers["sim.busy_s"] = busy
	r.layers["fuzz.seeds_scheduled"] = float64(r.counts[telemetry.MSeedsScheduled])
	if s := r.layers["fuzz.seeds_searched"]; s > 0 {
		r.layers["fuzz.crack_per_seed"] = float64(p.counter(telemetry.MSeedsCracked)) / s
	}
	r.layers["opt.iters"] = iters
	if iters > 0 {
		r.layers["opt.sims_per_iter"] = float64(searchSims) / iters
	}
}

// Profile buckets. Each CPU sample is charged to one bucket: GC work
// and runtime copies first, then the innermost frame of a program
// layer package. Frames of vec, math, encoding/json and the RNG's
// drawing functions are transparent: they charge their nearest layer
// caller.
const (
	bucketGC           = "runtime.gc"
	bucketCopy         = "runtime.copy"
	bucketSeed         = "rng.seed"
	bucketUnattributed = "unattributed"
)

// stepBuckets are reported as CPU ns per logical simulation step,
// missionBuckets as CPU ns per mission.
var (
	stepBuckets = []string{"sim.step_self", "sim.body", "sim.obstacle", "sim.collide",
		"flock", "comms", "gps", bucketSeed, bucketCopy, bucketGC}
	missionBuckets = []string{"svg", "flightlog", "report", "atlas", "fuzz", "opt",
		"experiments", "telemetry"}
)

// layerPackages maps a program package path prefix to its bucket.
// Longer prefixes are listed first so flightlog/report wins over
// flightlog.
var layerPackages = []struct{ prefix, bucket string }{
	{"swarmfuzz/internal/flightlog/report.", "report"},
	{"swarmfuzz/internal/flightlog.", "flightlog"},
	{"swarmfuzz/internal/report.", "report"},
	{"swarmfuzz/internal/atlas.", "atlas"},
	{"swarmfuzz/internal/svg.", "svg"},
	{"swarmfuzz/internal/graph.", "svg"},
	{"swarmfuzz/internal/flock.", "flock"},
	{"swarmfuzz/internal/comms.", "comms"},
	{"swarmfuzz/internal/gps.", "gps"},
	{"swarmfuzz/internal/spatial.", "sim.collide"},
	{"swarmfuzz/internal/sim.", "sim"},
	{"swarmfuzz/internal/fuzz.", "fuzz"},
	{"swarmfuzz/internal/opt.", "opt"},
	{"swarmfuzz/internal/experiments.", "experiments"},
	{"swarmfuzz/internal/robust.", "experiments"},
	{"swarmfuzz/internal/telemetry.", "telemetry"},
	{"main.", "bench"},
}

// isGCFrame reports whether a frame belongs to the garbage collector.
func isGCFrame(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	for _, s := range []string{"runtime.gc", "runtime.markroot", "runtime.scan", "sweep",
		"scavenge", "runtime.wbBuf", "runtime.greyobject", "runtime.(*gcWork)"} {
		if strings.Contains(fn, s) {
			return true
		}
	}
	return false
}

// isCopyFrame reports whether a leaf frame is a bulk copy or clear.
func isCopyFrame(fn string) bool {
	switch fn {
	case "runtime.duffcopy", "runtime.duffzero", "runtime.memmove",
		"runtime.memclrNoHeapPointers", "runtime.typedmemmove":
		return true
	}
	return false
}

// isSeedFrame reports whether a frame seeds a random source.
func isSeedFrame(fn string) bool {
	switch {
	case strings.HasPrefix(fn, "swarmfuzz/internal/rng."):
		name := strings.TrimPrefix(fn, "swarmfuzz/internal/rng.")
		return name == "New" || strings.HasPrefix(name, "Derive")
	case strings.HasPrefix(fn, "math/rand."):
		return strings.Contains(fn, "seed") || strings.Contains(fn, "Seed") || strings.Contains(fn, "NewSource")
	}
	return false
}

// simBucket splits the simulator package by the step's phases.
func simBucket(fn string) string {
	switch {
	case strings.Contains(fn, "(*Body).Step"), strings.Contains(fn, ".Body.Step"):
		return "sim.body"
	case strings.Contains(fn, "Obstacle"):
		return "sim.obstacle"
	case strings.Contains(fn, "collide"), strings.Contains(fn, "Collider"):
		return "sim.collide"
	}
	return "sim.step_self"
}

// bucketOf charges one sample's stack, leaf first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return bucketGC
		}
	}
	if len(stack) > 0 && isCopyFrame(stack[0]) {
		return bucketCopy
	}
	for _, fn := range stack {
		if isSeedFrame(fn) {
			return bucketSeed
		}
		for _, lp := range layerPackages {
			if strings.HasPrefix(fn, lp.prefix) {
				if lp.bucket == "sim" {
					return simBucket(fn)
				}
				return lp.bucket
			}
		}
	}
	return bucketUnattributed
}

// profileBuckets runs `go tool pprof -traces` over the CPU profiles
// and returns the CPU ns charged to each bucket.
func profileBuckets(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces"}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces buckets the samples of `pprof -traces` output: blocks
// separated by dashed rules, each opening with the sample's value
// before its leaf frame and listing one frame per line.
func parseTraces(out []byte) (map[string]float64, error) {
	buckets := map[string]float64{}
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			buckets[bucketOf(stack)] += float64(value.Nanoseconds())
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 && value == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				// A label line ("key:value") precedes some stacks.
				continue
			}
			value = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	return buckets, sc.Err()
}
