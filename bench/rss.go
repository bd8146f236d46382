package main

import (
	"errors"
	"os"
	"strconv"
	"strings"
)

// Linux keeps a process's peak resident set (VmHWM in /proc/self/status)
// and resets it to the current resident set when 5 is written to
// /proc/self/clear_refs. Every yardstick pass reads the peak of the window
// since the pass before and starts a new window, and peak_rss_mb is the
// median of the window peaks: a one-off spike, such as a collection that
// starts late, cannot move it, and a change in what the operations keep
// resident moves every window.

// windowPeakMB returns the peak resident set since the last call (or since
// the process started) in MB, and starts a new window.
func windowPeakMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, err := statusKB(string(status), "VmHWM:")
	if err != nil {
		return 0, err
	}
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return 0, err
	}
	_, werr := f.WriteString("5")
	if err := errors.Join(werr, f.Close()); err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// statusKB reads a "Field: <n> kB" line of /proc/self/status.
func statusKB(status, field string) (int, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, errors.New("malformed " + field + " line: " + line)
			}
			return strconv.Atoi(f[0])
		}
	}
	return 0, errors.New("no " + field + " line in /proc/self/status")
}
