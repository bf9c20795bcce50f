package sim

import (
	"fmt"
	"testing"

	"swarmfuzz/internal/vec"
)

// TestCollidePairOrder pins the pairwise scan's observable semantics
// on hand-built swarms: pairs come out for ascending i, each i takes
// its smallest qualifying j, crashes made earlier in the same pass
// suppress later pairs, and pre-crashed drones take no part.
func TestCollidePairOrder(t *testing.T) {
	const threshold = 0.5
	type drone struct {
		x, y, z float64
		crashed bool
	}
	cases := []struct {
		name    string
		drones  []drone
		want    [][2]int
		crashed []bool
	}{
		{
			// 0–1 and 1–2 are in range, 0–2 is not. Drone 1 crashes
			// with 0 first, so (1, 2) never forms and 2 survives.
			name:    "chain",
			drones:  []drone{{0, 0, 0, false}, {0.4, 0, 0, false}, {0.8, 0, 0, false}},
			want:    [][2]int{{0, 1}},
			crashed: []bool{true, true, false},
		},
		{
			// Drones 2 and 3 are both in range of 0; 0 takes the
			// smaller, and 3 is left with no partner in range. 1 pairs
			// with 4 after 0 is done.
			name: "min j per ascending i",
			drones: []drone{{0, 0, 0, false}, {10, 0, 0, false}, {0.3, 0, 0, false},
				{-0.3, 0, 0, false}, {10.2, 0, 0, false}},
			want:    [][2]int{{0, 2}, {1, 4}},
			crashed: []bool{true, true, true, false, true},
		},
		{
			// A crashed i is never scanned and a crashed j is never
			// taken, even when it is the nearest.
			name: "pre-crashed skipped",
			drones: []drone{{0, 0, 0, true}, {0.3, 0, 0, false}, {0.35, 0, 0, true},
				{0.6, 0, 0, false}},
			want:    [][2]int{{1, 3}},
			crashed: []bool{true, true, true, true},
		},
		{
			name: "negative coordinates",
			drones: []drone{{-100, -100, -5, false}, {-50, -50, -5, false},
				{-100.3, -100.2, -5, false}, {-50.1, -49.9, -5.2, false}},
			want:    [][2]int{{0, 2}, {1, 3}},
			crashed: []bool{true, true, true, true},
		},
		{
			name:    "none in range",
			drones:  []drone{{0, 0, 0, false}, {0.51, 0, 0, false}, {0, -0.51, 0, false}},
			want:    nil,
			crashed: []bool{false, false, false},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bodies := make([]Body, len(c.drones))
			for i, d := range c.drones {
				bodies[i] = Body{Pos: vec.New(d.x, d.y, d.z), Crashed: d.crashed}
			}
			// A stale buffer must be overwritten, as the Stepper
			// passes s.pairs[:0].
			pairs := collide(bodies, threshold, [][2]int{{9, 9}}[:0])
			if fmt.Sprint(pairs) != fmt.Sprint(c.want) {
				t.Errorf("pairs = %v, want %v", pairs, c.want)
			}
			for i, b := range bodies {
				if b.Crashed != c.crashed[i] {
					t.Errorf("drone %d crashed = %v, want %v", i, b.Crashed, c.crashed[i])
				}
			}
		})
	}
}
