// Package stats provides the small statistical toolkit the benchmark
// harness uses: power-of-two latency histograms with quantile estimation,
// online mean/variance accumulation, and rate helpers. Everything is
// allocation-free on the hot path and safe for single-goroutine use; the
// harness merges per-goroutine instances after a run.
package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"strings"
	"time"
)

// Histogram counts int64 samples (typically nanoseconds) in power-of-two
// buckets: bucket b holds samples v with 2^(b-1) <= v < 2^b (bucket 0 holds
// v <= 0 ... 1). Quantiles are estimated by linear interpolation within the
// winning bucket, which is accurate to a factor of 2 in the worst case and
// much better in practice — sufficient for the order-of-magnitude latency
// comparisons of E4/E8.
type Histogram struct {
	counts [65]uint64
	total  uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min returns the smallest recorded sample, or 0 with no samples.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile estimates the q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+c {
			lo := int64(0)
			if b > 0 {
				lo = int64(1) << uint(b-1)
			}
			hi := int64(1) << uint(b)
			if b == 0 {
				hi = 1
			}
			frac := float64(rank-cum) / float64(c)
			v := lo + int64(frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// String summarises the distribution.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram(empty)"
	}
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p99=%d max=%d",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}

// DurationSummary renders nanosecond-sample quantiles as durations.
func (h *Histogram) DurationSummary() string {
	if h.total == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50=%v p90=%v p99=%v max=%v",
		time.Duration(h.Quantile(0.5)).Round(time.Nanosecond),
		time.Duration(h.Quantile(0.9)).Round(time.Nanosecond),
		time.Duration(h.Quantile(0.99)).Round(time.Nanosecond),
		time.Duration(h.max).Round(time.Nanosecond))
}

// Welford accumulates mean and variance online (Welford's algorithm),
// numerically stable for long benchmark runs.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Rate converts an operation count over a wall-clock duration into ops/sec.
func Rate(ops int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

// FormatRate renders ops/sec with engineering suffixes (k, M, G).
func FormatRate(r float64) string {
	switch {
	case r >= 1e9:
		return fmt.Sprintf("%.2fG/s", r/1e9)
	case r >= 1e6:
		return fmt.Sprintf("%.2fM/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.2fk/s", r/1e3)
	default:
		return fmt.Sprintf("%.1f/s", r)
	}
}

// Sparkline renders a series as a fixed-width block-character strip, the
// text-mode equivalent of the ticket-growth figure: each output column is
// the mean of its bucket of samples, scaled to the series maximum.
func Sparkline(vals []int32, width int) string {
	if len(vals) == 0 || width < 1 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	if width > len(vals) {
		width = len(vals)
	}
	max := int32(1)
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	out := make([]rune, width)
	for c := 0; c < width; c++ {
		lo := c * len(vals) / width
		hi := (c + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range vals[lo:hi] {
			sum += float64(v)
		}
		mean := sum / float64(hi-lo)
		idx := int(mean / float64(max) * float64(len(blocks)))
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[c] = blocks[idx]
	}
	return string(out)
}

// Table is a minimal aligned-column text table used by the experiment
// harness and cmd/bakerybench to print the rows recorded in EXPERIMENTS.md.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// CSV renders the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.header)
	for _, row := range t.rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, cell := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(cell, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(cell, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(cell)
		}
	}
	b.WriteByte('\n')
}

// Fingerprint returns a short stable hash of the table's full content
// (title, header and rows). Two tables fingerprint equal iff they render
// identically, which is how the sweep harness asserts — and lets users
// verify across machines — that an aggregated result is deterministic.
func (t *Table) Fingerprint() string {
	h := fnv.New64a()
	h.Write([]byte(t.Title))
	h.Write([]byte{0})
	h.Write([]byte(t.CSV()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hd := range t.header {
		widths[i] = len(hd)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
