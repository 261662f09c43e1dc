package main

import (
	"reflect"
	"testing"
)

// The served job sequence is a pure function of the seed: the same seed
// issues the same jobs in the same order, another seed does not.
func TestPlanServedDeterministic(t *testing.T) {
	a, b := planServed(7), planServed(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans for seed 7 differ")
	}
	if reflect.DeepEqual(a, planServed(8)) {
		t.Fatal("seeds 7 and 8 gave the same plan")
	}
}

func TestPlanServedShape(t *testing.T) {
	p := planServed(1)
	if len(p.Traces) != 8 || len(p.Cells) != 96 {
		t.Fatalf("%d traces and %d cells, want 8 and 96", len(p.Traces), len(p.Cells))
	}
	// Every cell is issued exactly once in the miss phase.
	seen := map[cellSpec]bool{}
	for _, c := range p.Cells {
		if seen[c] {
			t.Fatalf("cell %+v issued twice", c)
		}
		seen[c] = true
	}
	// Uploaded and server-recorded traces use different seeds.
	for u := 0; u < uploadedTraces; u++ {
		for r := uploadedTraces; r < len(p.Traces); r++ {
			if p.Traces[u].Seed == p.Traces[r].Seed {
				t.Fatalf("trace %d and %d share seed %d", u, r, p.Traces[u].Seed)
			}
		}
	}
	hits := 0
	for _, h := range p.Hits {
		hits += len(h)
		for _, i := range h {
			if i < 0 || i >= len(p.Cells) {
				t.Fatalf("hit on cell %d of %d", i, len(p.Cells))
			}
		}
	}
	if len(p.Hits) != srvClients || hits != srvHits {
		t.Fatalf("%d clients, %d hits; want %d and %d", len(p.Hits), hits, srvClients, srvHits)
	}
	if _, ok := tailPercentile(hits); !ok {
		t.Fatal("too few hits for a tail percentile")
	}
}
