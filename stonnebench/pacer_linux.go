//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a deadline with kernel-timer precision. It arms a
// timerfd and blocks reading it through the runtime's network poller, so
// the waiting goroutine is parked without holding a scheduler slot. A
// plain Go timer is not precise enough here: an idle Go scheduler waits
// for timers with millisecond granularity, which would add up to a
// millisecond of generator lateness to sub-millisecond requests.
type pacer struct {
	fd int
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct{ Interval, Value syscall.Timespec }

// newPacer returns a timerfd pacer, or nil (plain Go sleeps) when the
// kernel offers none.
func newPacer() *pacer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}
}

// sleepUntil blocks until t.
func (p *pacer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if p == nil {
		time.Sleep(d)
		return
	}
	its := itimerspec{Value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte
	if _, err := p.f.Read(buf[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (p *pacer) close() {
	if p != nil {
		p.f.Close()
	}
}
