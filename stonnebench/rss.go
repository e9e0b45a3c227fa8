package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// rssWindows records the resident-set peak of each one-second window. At
// the end of a window it reads the kernel's high-water mark (VmHWM) and
// resets it through /proc/self/clear_refs, so no short spike inside a
// window is missed. Each workload runs in its own process, so no other
// workload's memory can leak into its windows.
type rssWindows struct {
	stop, done chan struct{}
	peaks      []float64 // written by the window goroutine until done closes
}

const rssWindow = time.Second

// peakRSSQuantile is the share of one-second windows whose peak
// peak_rss_mb covers. The single highest window is set by when garbage
// collections happen to fall (on serve-churn, on the 2-vCPU Xeon host of
// README.md, it read 27.7 and 31.8 MB in two runs of one seed); memory
// held for a tenth of the run still shows.
const peakRSSQuantile = 0.9

func startRSSWindows() *rssWindows {
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.peaks = append(w.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return w
}

// finish closes the last, partial window and returns every window's peak.
func (w *rssWindows) finish() []float64 {
	close(w.stop)
	<-w.done
	return append(w.peaks, peakRSSMB())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) since
// start or the last reset. Off Linux it falls back to the memory the Go
// runtime has obtained from the OS.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS sets VmHWM back to the current resident set. Where that is
// not possible the mark keeps growing and each window reports the peak so
// far, which can only overstate its peak.
func resetPeakRSS() {
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.WriteString("5")
		f.Close()
	}
}
