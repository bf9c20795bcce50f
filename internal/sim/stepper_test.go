package sim

import (
	"testing"

	"swarmfuzz/internal/comms"
)

// TestStepperMatchesRun drives a Stepper by hand and checks it
// reproduces Run exactly (Run is itself a Stepper loop, but the test
// pins the exported incremental API: step counts, result identity).
func TestStepperMatchesRun(t *testing.T) {
	mission, err := NewMission(smallConfig(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Controller: straightController{speed: 2}, RecordTrajectory: true}

	want, err := Run(mission, opts)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStepper(mission, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result() != nil {
		t.Fatal("Result non-nil before completion")
	}
	for {
		done, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	got := st.Result()
	if got == nil {
		t.Fatal("Result nil after completion")
	}
	if got.Duration != want.Duration || got.Completed != want.Completed {
		t.Fatalf("stepper result (%.2fs, %v) != run result (%.2fs, %v)",
			got.Duration, got.Completed, want.Duration, want.Completed)
	}
	if len(got.Trajectory.Times) != len(want.Trajectory.Times) {
		t.Fatalf("trajectory samples %d != %d", len(got.Trajectory.Times), len(want.Trajectory.Times))
	}
	for s := range want.Trajectory.Positions {
		for i := range want.Trajectory.Positions[s] {
			if got.Trajectory.Positions[s][i] != want.Trajectory.Positions[s][i] {
				t.Fatalf("sample %d drone %d position differs", s, i)
			}
		}
	}
	// Step after done re-returns the terminal state.
	if done, err := st.Step(); !done || err != nil {
		t.Fatalf("Step after done = (%v, %v), want (true, nil)", done, err)
	}
	if st.StepsRun() == 0 {
		t.Fatal("StepsRun is zero after a full run")
	}
}

// TestStepperZeroAlloc pins the tentpole property: once warm, one
// simulation step allocates nothing — across swarm sizes from the
// paper's five drones to fifty, with and without trajectory
// recording.
func TestStepperZeroAlloc(t *testing.T) {
	for _, n := range []int{5, 10, 50} {
		for _, traj := range []bool{false, true} {
			mission, err := NewMission(DefaultMissionConfig(n, 7))
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewStepper(mission, RunOptions{
				Controller:       straightController{speed: 0.01},
				Bus:              comms.NewPerfectBus(),
				RecordTrajectory: traj,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: first steps size the bus arena and pair buffer.
			for i := 0; i < 5; i++ {
				if _, err := st.Step(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := st.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("n=%d traj=%v: warm Step allocates %v objects/op, want 0", n, traj, allocs)
			}
		}
	}
}
