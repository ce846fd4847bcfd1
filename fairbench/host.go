package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// probeSeconds is the length of each half of the host capacity probe. A
// tenth of a second has read 1.0x on a host that reads 1.7x a little
// later over two seconds, so the probe spins long enough to see through
// a scheduler's short-term placement.
const probeSeconds = 1.0

// parallelCapacity is the host's raw parallel capacity: the spin
// throughput of two goroutines over that of one. A fan-out speedup is
// only meaningful beside it.
func parallelCapacity() float64 {
	d := time.Duration(probeSeconds * float64(time.Second))
	return spinRate(2, d) / spinRate(1, d)
}

// spinRate runs n goroutines of pure arithmetic for d and returns their
// combined iterations per second.
func spinRate(n int, d time.Duration) float64 {
	var wg sync.WaitGroup
	counts := make([]uint64, n)
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(g) + 1
			var iters uint64
			for time.Since(start) < d {
				for i := 0; i < 1<<16; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				iters += 1 << 16
			}
			counts[g] = iters + x&1 // keep x live
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var total uint64
	for _, c := range counts {
		total += c
	}
	return float64(total) / elapsed
}

// selfCPU is this process's user+system CPU time, exact to the
// scheduler's accounting (getrusage, not the 10 ms /proc ticks).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is one in-process measurement of a layer: CPU, wall time and heap
// bytes allocated over a number of units (records or calls).
type cost struct {
	cpu, wall time.Duration
	alloc     uint64
	units     int
}

func (c cost) cpuUS() float64  { return c.cpu.Seconds() * 1e6 / float64(c.units) }
func (c cost) wallUS() float64 { return c.wall.Seconds() * 1e6 / float64(c.units) }
func (c cost) allocB() float64 { return float64(c.alloc) / float64(c.units) }

// measure runs fn (which processes units units per call) at least once
// and until minDur has passed, and returns the accumulated cost. A
// collection first keeps the previous layer's garbage off this one's bill.
func measure(minDur time.Duration, units int, fn func() error) (cost, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var c cost
	cpu0 := selfCPU()
	start := time.Now()
	for c.units == 0 || c.wall < minDur {
		if err := fn(); err != nil {
			return c, err
		}
		c.units += units
		c.wall = time.Since(start)
	}
	c.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc - alloc0
	return c, nil
}
