package main

import "time"

// The benchmark runs on shared machines whose other tenants contend for
// the last-level cache, the memory system and the core's front end.
// That contention changes over tens of seconds and slows the simulator
// by up to half again, far more than the bounds the benchmark gates on.
// So every time the benchmark reports is scaled by a machine-speed
// probe run between the jobs it times: a fixed kernel that stresses
// what the simulator and the server depend on, random read-modify-write
// over 4 MiB and unpredictable branches over a small table. The probe
// is the benchmark's own code, so no change to the program moves it;
// a change that makes the program faster or slower moves the scaled
// time exactly as it moves the raw time. Raw times are printed on the
// detail line.

// probeRefS is about the probe's median time on the machine the
// benchmark was defined on (a 2-vCPU Intel Xeon virtual machine): scaled
// times are in that machine's seconds at its usual contention.
const probeRefS = 0.0070

var (
	probeMem   = make([]uint64, 1<<19) // 4 MiB
	probeTable = make([]uint32, 1<<14) // 64 KiB
	probeSink  uint64
)

// probe runs the machine-speed kernel once and returns its time.
func probe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(probeMem)-1)
		acc += probeMem[j]
		probeMem[j] = acc
		k := uint64(probeTable[(x>>24)&uint64(len(probeTable)-1)])
		switch x >> 62 {
		case 0:
			acc += k
		case 1:
			acc ^= k << 3
		case 2:
			probeTable[(x>>40)&uint64(len(probeTable)-1)] = uint32(acc)
		default:
			acc -= x
		}
	}
	probeSink += acc
	return time.Since(t0).Seconds()
}

// speed collects probe times over one stretch of a run.
type speed []float64

// sample runs the probe and records its time.
func (s *speed) sample() { *s = append(*s, probe()) }

// scale is the factor that converts a time measured during the stretch
// into reference seconds.
func (s speed) scale() float64 { return probeRefS / median(s) }
