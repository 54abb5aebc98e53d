package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostKey identifies the machine a result was measured on. Numbers are
// only comparable between runs with equal keys.
type hostKey struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHostKey() hostKey {
	k := hostKey{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return k
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			k.CPUModel = strings.TrimSpace(val)
			break
		}
	}
	return k
}

// cpuTicks reads the machine-wide tick counters of /proc/stat: the ticks
// stolen by the hypervisor and the total. ok is false where /proc/stat
// is unavailable, and the steal share is then unknown.
func cpuTicks() (steal, total int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the hypervisor's CPU-steal share over an interval.
type stealMeter struct {
	steal, total int64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

// share returns the stolen fraction of all ticks since start, or 0 when
// it could not be measured.
func (m stealMeter) share() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// cpuNanos returns the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
