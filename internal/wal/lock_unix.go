// The constraint lists the flock(2) platforms explicitly: the broader
// "unix" tag would pull in solaris/aix, where syscall.Flock is undefined.
//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package wal

import (
	"os"
	"syscall"
)

// lockFile takes a non-blocking exclusive advisory lock on f. The kernel
// releases it on any process death — including SIGKILL — so crash
// recovery never meets a stale lock.
func lockFile(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}
