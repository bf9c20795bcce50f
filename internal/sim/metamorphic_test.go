package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/sim"
)

// TestNoOpSpoofMatchesCleanRun is a metamorphic check on the mission
// engine: a spoofing plan that never displaces a GPS reading must
// leave the whole run untouched. A zero deviation, a zero-length
// window and a window opening after the clean run has ended each give
// a Result (verdict, collisions, clearances, recorded trajectory)
// deep-equal to the clean run's. The same window with a real
// deviation must change the trajectory, so the no-op cases cannot pass
// by the plan being ignored.
func TestNoOpSpoofMatchesCleanRun(t *testing.T) {
	ctrl := flockController(t)
	for _, n := range []int{5, 10, 15} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("n%d_seed%d", n, seed), func(t *testing.T) {
				m, err := sim.NewMission(sim.DefaultMissionConfig(n, seed))
				if err != nil {
					t.Fatal(err)
				}
				run := func(plan *gps.SpoofPlan) *sim.Result {
					t.Helper()
					res, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: plan, RecordTrajectory: true})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				clean := run(nil)
				dir := gps.Right
				if seed%2 == 0 {
					dir = gps.Left
				}
				attack := gps.SpoofPlan{
					Target:    int(seed) % n,
					Start:     clean.Duration / 4,
					Duration:  clean.Duration / 2,
					Direction: dir,
					Distance:  10,
				}

				noDistance := attack
				noDistance.Distance = 0
				noWindow := attack
				noWindow.Duration = 0
				afterEnd := attack
				afterEnd.Start = math.Nextafter(clean.Duration, math.Inf(1))
				for _, plan := range []gps.SpoofPlan{noDistance, noWindow, afterEnd} {
					if got := run(&plan); !reflect.DeepEqual(got, clean) {
						t.Errorf("no-op plan %v: result differs from the clean run", plan)
					}
				}

				if reflect.DeepEqual(run(&attack).Trajectory, clean.Trajectory) {
					t.Errorf("control %v left the trajectory unchanged", attack)
				}
			})
		}
	}
}
