package simbench

import (
	"math"
	"testing"
)

// TestMergeSMT checks that Merge matches SMT rows by mix name, skips a
// mix the baseline lacks, and keeps the SMT gmean apart from the
// prefetch one.
func TestMergeSMT(t *testing.T) {
	cur := Report{
		Workloads: []Result{{Name: "stream", InstsPerSec: 300}},
		SMT: []SMTResult{
			{Name: "gcc-mcf", UopsPerSec: 200},
			{Name: "mcf-wrf", UopsPerSec: 800},
			{Name: "new-mix", UopsPerSec: 50},
		},
	}
	base := Report{
		Workloads: []Result{{Name: "stream", InstsPerSec: 100}},
		SMT: []SMTResult{
			{Name: "gcc-mcf", UopsPerSec: 100},
			{Name: "mcf-wrf", UopsPerSec: 100},
		},
	}
	got := Merge(cur, base)
	if math.Abs(got.GMeanSpeedup-3) > 1e-12 {
		t.Errorf("prefetch gmean = %v, want 3", got.GMeanSpeedup)
	}
	if got.SMT[0].Speedup != 2 || got.SMT[1].Speedup != 8 || got.SMT[0].BaselineUopsPerSec != 100 {
		t.Errorf("SMT speedups = %+v, want 2 and 8 over 100", got.SMT[:2])
	}
	if got.SMT[2].Speedup != 0 {
		t.Errorf("unmatched mix speedup = %v, want 0", got.SMT[2].Speedup)
	}
	if math.Abs(got.GMeanSpeedupSMT-4) > 1e-12 {
		t.Errorf("SMT gmean = %v, want 4", got.GMeanSpeedupSMT)
	}
}
