package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// procSnapshot is the process-wide resource use so far.
type procSnapshot struct {
	cpuSec     float64 // rusage user + system
	allocBytes uint64
	mallocs    uint64
	gcCPUSec   float64
}

func readProc() procSnapshot {
	var p procSnapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpuSec = tvSec(ru.Utime) + tvSec(ru.Stime)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocBytes, p.mallocs = ms.TotalAlloc, ms.Mallocs
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPUSec = s[0].Value.Float64()
	}
	return p
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(raw)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return pages * int64(os.Getpagesize())
}

// sampler polls resident memory and goroutine count while the window
// runs. Sampling (rather than VmHWM) keeps the repeated set-ups that
// precede the window out of peak_rss_mb.
type sampler struct {
	quit           chan struct{}
	done           chan struct{}
	peakRSS        int64
	peakGoroutines int
}

const samplePeriod = 20 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			if rss := rssBytes(); rss > s.peakRSS {
				s.peakRSS = rss
			}
			if n := runtime.NumGoroutine(); n > s.peakGoroutines {
				s.peakGoroutines = n
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampler and waits for it; the peaks are stable after.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

func (s *sampler) peakRSSMB() float64 { return float64(s.peakRSS) / 1e6 }
