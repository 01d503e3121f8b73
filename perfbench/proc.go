package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc CPU times; it is 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+sys CPU time a process has used, from
// /proc/<pid>/stat (10 ms resolution).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; fields restart
	// after the last ')'. utime and stime are fields 14 and 15 overall.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+sys CPU time (microsecond resolution).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatus returns one "Key:" line of /proc/<pid>/status, value only.
func procStatus(pid int, key string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// peakRSSMB returns a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	v, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// allowedCPUs counts the CPUs in a process's affinity mask, which is what
// the Go runtime sizes GOMAXPROCS from when the environment does not set it.
func allowedCPUs(pid int) int {
	v, err := procStatus(pid, "Cpus_allowed_list")
	if err != nil {
		return 0
	}
	n := 0
	for _, part := range strings.Split(v, ",") {
		lo, hi, found := strings.Cut(part, "-")
		a, err1 := strconv.Atoi(lo)
		b := a
		var err2 error
		if found {
			b, err2 = strconv.Atoi(hi)
		}
		if err1 == nil && err2 == nil && b >= a {
			n += b - a + 1
		}
	}
	return n
}

// cpuTimes is the machine-wide user and steal time from /proc/stat, in
// clock ticks. Steal is time the hypervisor ran someone else on our CPUs.
type cpuTimes struct{ user, steal int64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	user, _ := strconv.ParseInt(f[1], 10, 64)
	steal, _ := strconv.ParseInt(f[8], 10, 64)
	return cpuTimes{user: user, steal: steal}
}
