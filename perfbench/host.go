package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
)

// cpuTicks are the machine-wide CPU time counters of /proc/stat, in clock
// ticks: steal is the time the hypervisor ran something else while one of
// this machine's virtual CPUs had work, total all CPU time.
type cpuTicks struct {
	steal, total uint64
	ok           bool
}

// readCPUTicks reads the aggregate "cpu" line of /proc/stat. Where there
// is no such file (not Linux) it returns ok false, and every round counts
// as undisturbed.
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealSince is the share of all CPU time since start that the hypervisor
// took from this machine (0 when unknown).
func stealSince(start cpuTicks) float64 {
	end := readCPUTicks()
	if !start.ok || !end.ok || end.total <= start.total {
		return 0
	}
	return float64(end.steal-start.steal) / float64(end.total-start.total)
}

// stealLimit is the steal share up to which a round counts as undisturbed.
// On the 2-vCPU virtual machine the benchmark was tuned on, most rounds
// read under 1.5%, and rounds at 3 to 12% had the gateway's p99 raised by
// a fifth to two fifths.
const stealLimit = 0.015

// calmRounds returns, in round order, the rounds whose steal share is at
// most stealLimit, and at least the half of all rounds with the least
// steal, so that a host that disturbs the whole run still yields a result.
func calmRounds(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := (len(idx) + 1) / 2
	for keep < len(idx) && steal[idx[keep]] <= stealLimit {
		keep++
	}
	idx = idx[:keep]
	sort.Ints(idx)
	return idx
}
