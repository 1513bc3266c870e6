package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// exposition is one Prometheus text scrape: series (name with its labels,
// verbatim) → value.
type exposition map[string]float64

// parseExposition parses the Prometheus text format the serving process
// writes, strictly enough that a malformed line is an error.
func parseExposition(body string) (exposition, error) {
	out := exposition{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 1 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples in exposition")
	}
	return out, nil
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func scrape(url string) (exposition, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	return parseExposition(string(body))
}

// deltas is the sum over ranks of each series' change across one phase.
// Only series present in both scrapes of every rank are kept, so a series
// a later version renames reads as absent rather than as a bogus value.
type deltas map[string]float64

func phaseDeltas(before, after []exposition) deltas {
	d := deltas{}
	for name := range after[0] {
		total := 0.0
		present := true
		for r := range after {
			a, okA := after[r][name]
			b, okB := before[r][name]
			if !okA || !okB {
				present = false
				break
			}
			total += a - b
		}
		if present {
			d[name] = total
		}
	}
	return d
}

// ratio returns d[num]/d[den] scaled, and whether both series exist and the
// denominator is nonzero.
func (d deltas) ratio(num, den string, scale float64) (float64, bool) {
	n, okN := d[num]
	v, okD := d[den]
	if !okN || !okD || v == 0 {
		return 0, false
	}
	return n / v * scale, true
}

// stageMeanUS is the mean duration of one dispatcher stage per observed
// request, in µs.
func (d deltas) stageMeanUS(stage string) (float64, bool) {
	return d.ratio(`panda_stage_latency_seconds_sum{stage="`+stage+`"}`,
		`panda_stage_latency_seconds_count{stage="`+stage+`"}`, 1e6)
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procPeakRSS returns a process's peak resident set size in MB (VmHWM).
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
