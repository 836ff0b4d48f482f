// Package procstat reads the calling process's peak resident set size.
package procstat

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// PeakRSSMB is the process's peak resident set size in MiB, from the
// VmHWM line of /proc/self/status. Unlike getrusage's ru_maxrss, VmHWM
// belongs to the process's own address space, so a child started by
// vfork and exec does not inherit its parent's peak.
func PeakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("procstat: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("procstat: no VmHWM in /proc/self/status")
}
