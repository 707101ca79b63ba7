package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"obm/internal/scenario"
	"obm/internal/service"
)

// setupReps is how many times each run measures its set-up; setup_s is
// the median.
const setupReps = 31

// measureSetup records setup_s: the time from starting a fresh frontend
// process until it can take its first request. The process is this
// program started with -setup-child; it is ready when it prints "ready".
// Runtime and package initialisation (which registers every experiment)
// are included, as a user starting obmsim or obmsimd pays them.
func (r *run) measureSetup() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	setups, err := timeRepeated(setupReps, func() error {
		cmd := exec.Command(self, "-setup-child", "-workload", r.cfg.workload, "-seed", strconv.FormatUint(r.cfg.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("setup child: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return fmt.Errorf("setup child said %q: %v", line, readErr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups), len(setups))
	return nil
}

// setupChild performs a frontend's start: for a batch workload a cold
// shared cache and a resolved request, for jobs-mixed the daemon stack
// answering on a loopback listener.
func setupChild(workload string, seed uint64, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if workload == "jobs-mixed" {
		d, err := startDaemon()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "ready")
		if err := d.stop(context.Background()); err != nil {
			return fail(err)
		}
		return 0
	}
	for _, w := range batchWorkloads {
		if w.name == workload {
			scenario.ResetShared()
			req := service.Request{Experiments: w.experiments, Quick: true, Seed: requestSeed(seed)}
			if _, _, err := req.Resolve(); err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, "ready")
			return 0
		}
	}
	return fail(fmt.Errorf("unknown workload %q", workload))
}
