//go:build !linux

package main

import "time"

// waitUntil returns at t, or up to a millisecond later.
func waitUntil(t time.Time) { time.Sleep(time.Until(t)) }

// preciseTimers has nothing to tune outside Linux.
func preciseTimers() func() { return func() {} }
