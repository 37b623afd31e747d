//go:build unix

package harness

import (
	"runtime"
	"syscall"
)

// peakRSSKB reports the process's resident-set high-water mark in KiB
// (getrusage Maxrss is KiB on Linux, bytes on Darwin): E17's peak-RSS
// column. It is monotonic over the process, so a row's own footprint is
// its delta against the preceding row.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return ru.Maxrss / 1024
	}
	return ru.Maxrss
}
