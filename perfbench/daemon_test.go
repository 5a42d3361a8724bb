package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain doubles as the child process of TestProcSampling: with
// PERFBENCH_TEST_CHILD set it burns CPU, touches memory, reports ready and
// waits to be killed.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_TEST_CHILD") == "1" {
		mem := make([]byte, 64<<20)
		for i := range mem {
			mem[i] = byte(i)
		}
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		}
		fmt.Println("ready", mem[len(mem)-1])
		time.Sleep(time.Minute)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestProcSampling(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "PERFBENCH_TEST_CHILD=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	if !bufio.NewScanner(out).Scan() {
		t.Fatal("child exited before reporting ready")
	}
	pid := cmd.Process.Pid
	cpu, err := procCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	if cpu < 200*time.Millisecond {
		t.Errorf("child CPU %v, want ≥ 200ms after a 300ms spin", cpu)
	}
	hwm, err := vmHWMMiB(pid)
	if err != nil {
		t.Fatal(err)
	}
	if hwm < 64 {
		t.Errorf("child VmHWM %.1f MiB, want ≥ 64 after touching 64 MiB", hwm)
	}
	if n, err := cpusAllowed(pid); err != nil || n < 1 {
		t.Errorf("cpusAllowed = %d, %v", n, err)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; utime and stime are
	// fields 14 and 15, in clock ticks.
	line := "4242 (dppr (x) d) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 5 0 100 0 0"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 3*time.Second {
		t.Errorf("cpu = %v, want 3s", got)
	}
	if _, err := parseStatCPU([]byte("4242 no parens")); err == nil {
		t.Error("malformed stat accepted")
	}
}

func TestParseStatusField(t *testing.T) {
	status := "Name:\tdppr-httpd\nVmPeak:\t  900 kB\nVmHWM:\t  204800 kB\nCpus_allowed_list:\t0-1,4\n"
	if v, err := parseStatusField([]byte(status), "VmHWM"); err != nil || v != "204800 kB" {
		t.Errorf("VmHWM = %q, %v", v, err)
	}
	if _, err := parseStatusField([]byte(status), "VmRSS"); err == nil {
		t.Error("missing field found")
	}
}
