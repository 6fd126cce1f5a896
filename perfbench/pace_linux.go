package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// lockPacer pins the calling goroutine to its OS thread and drops the
// thread's timer slack to 1ns, so short sleeps wake within microseconds
// instead of the default 50µs slack.
func lockPacer() {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// unlockPacer undoes lockPacer.
func unlockPacer() { runtime.UnlockOSThread() }

// sleepPrecise blocks the thread in nanosleep(2). Go timers would round a
// sub-millisecond wait up to a millisecond; the thread's P goes back to the
// scheduler for the length of the syscall.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Syscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
}

// threadCPU is the calling thread's CPU time; meaningful on a locked thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
