package sim

// collide finds this tick's drone-drone collisions with a pairwise
// scan: for each drone i in ascending order that is not yet crashed,
// it takes the smallest j > i that is not yet crashed and within the
// collision threshold, crashes both and appends the pair (i, j) to
// pairs, which it returns. Because crashes made earlier in the same
// pass suppress later pairs, the order of processing is part of the
// observable behaviour. Pass pairs[:0] to reuse the buffer, so a
// steady-state pass allocates nothing.
func collide(bodies []Body, threshold float64, pairs [][2]int) [][2]int {
	for i := 0; i < len(bodies); i++ {
		if bodies[i].Crashed {
			continue
		}
		for j := i + 1; j < len(bodies); j++ {
			if bodies[j].Crashed {
				continue
			}
			if bodies[i].Pos.Dist(bodies[j].Pos) <= threshold {
				bodies[i].Crashed = true
				bodies[j].Crashed = true
				pairs = append(pairs, [2]int{i, j})
				break
			}
		}
	}
	return pairs
}
