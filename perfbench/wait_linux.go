//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// preciseTimers pins the calling goroutine to its thread and lowers the
// thread's timer slack from the default 50 µs to 1 ns, so that
// waitUntil wakes on time. The returned func restores the thread's slack
// and undoes the pinning, so the thread goes back to the runtime as it
// came.
func preciseTimers() func() {
	runtime.LockOSThread()
	const prSetTimerSlack, prGetTimerSlack = 29, 30
	old, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, old, 0)
		runtime.UnlockOSThread()
	}
}

// waitUntil returns at t. A sleeping process wakes on a millisecond grid
// (the runtime's poller waits in whole milliseconds), so the last
// stretch before t is slept in the kernel, which wakes within
// microseconds, without spinning a processor.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
