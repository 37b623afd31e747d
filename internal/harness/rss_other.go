//go:build !unix

package harness

// peakRSSKB is unavailable without getrusage; E17 reports 0.
func peakRSSKB() int64 { return 0 }
