package main

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// A buffer touched and dropped before the reading still counts: the
// figure is a high-water mark, not the resident set at the time of
// reading. After a reset the mark falls back below the spike.
func TestPeakRSSSpikeAndReset(t *testing.T) {
	before := peakRSSMB()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	runtime.KeepAlive(buf)
	buf = nil
	debug.FreeOSMemory()
	spike := peakRSSMB()
	if spike < before || spike < 64 {
		t.Fatalf("peak %.1f MB after touching 64 MB (%.1f MB before)", spike, before)
	}
	resetPeakRSS()
	if after := peakRSSMB(); after > spike-32 {
		t.Errorf("peak %.1f MB after reset, spike was %.1f MB", after, spike)
	}
}
