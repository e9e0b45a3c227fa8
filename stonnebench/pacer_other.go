//go:build !linux

package main

import "time"

// pacer sleeps until a deadline; off Linux it uses plain Go timers.
type pacer struct{}

func newPacer() *pacer { return nil }

func (p *pacer) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func (p *pacer) close() {}
