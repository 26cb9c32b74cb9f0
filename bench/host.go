package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// host fingerprints the machine and build a run measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	// CalibScore is iterations/s of a fixed loop independent of the
	// simulator: a slower host or a noisy neighbour moves it, a simulator
	// change does not.
	CalibScore float64 `json:"calib_score"`
}

func fingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		CalibScore: calibScore(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Revision += "-modified"
		}
	}
	return h
}

// calibSink defeats dead-code elimination of the calibration loop.
var calibSink uint64

// calibScore is cmd/benchengine's host calibration: hash arithmetic plus
// dependent loads over a 4 MB working set, shaped like the simulator's
// inner loop; the best iterations/s of five short reps.
func calibScore() float64 {
	buf := make([]uint64, 1<<19)
	for i := range buf {
		buf[i] = uint64(i)
	}
	const inner = 1 << 22
	best := 0.0
	s := uint64(0x9e3779b97f4a7c15)
	for r := 0; r < 5; r++ {
		start := time.Now()
		acc := uint64(0)
		for i := 0; i < inner; i++ {
			s += 0x9e3779b97f4a7c15
			z := s
			z ^= z >> 30
			z *= 0xbf58476d1ce4e5b9
			z ^= z >> 27
			acc += buf[z&uint64(len(buf)-1)]
		}
		calibSink += acc
		if sc := inner / time.Since(start).Seconds(); sc > best {
			best = sc
		}
	}
	return best
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
