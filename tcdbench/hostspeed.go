package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The shared host's speed drifts within seconds, by a factor of up to 2
// for a simulator run, even in CPU time: other tenants share the cores'
// caches and execution units, which CPU time does not subtract. Each
// workload therefore interleaves short runs of a fixed calibration
// kernel with the work it measures, on the same CPU (see pinToOneCPU),
// and scales its timed figures to the speed the kernel ran at on the
// reference host. The kernel is this package's own code and the
// standard library's, and it runs in a child process of its own, so a
// change to the program, its allocation and collection included, moves
// the measured figures and never the calibration.
//
// The kernel is a JSON round trip of a fixed document. It was picked
// from four candidates by fitting log simulator speed against log kernel
// speed over one-second samples on the reference host: its speed
// follows the simulator's with a slope of 0.96 and correlation 0.97,
// where an allocation-free heap kernel that stays in L1 gave a slope of
// 1.7 to 2.0: the simulator's code and data footprint makes it more
// sensitive to sharing than a small kernel is, and encoding/json's
// reflection, maps and allocation are alike in that.

// refCalRate is the kernel's round trips per CPU-second on the reference
// host (a 2-vCPU Intel Xeon VM) in a quiet period. It only sets the
// scale of the normalized figures.
const refCalRate = 2000

// calShare is the calibration's CPU time as a share of the measured
// work's.
const calShare = 0.2

// calibratorEnv, set to 1, makes the benchmark's executable serve as the
// calibrator child.
const calibratorEnv = "TCDBENCH_CALIBRATOR"

// calRecord is the calibration document's type.
type calRecord struct {
	Name string            `json:"name"`
	Vals []float64         `json:"vals"`
	Tags map[string]string `json:"tags"`
	Kids []calRecord       `json:"kids,omitempty"`
}

// calDoc is the calibration document: 40 records of 20 numbers and two
// tags each.
var calDoc = func() calRecord {
	doc := calRecord{Name: "root", Tags: map[string]string{}}
	for i := 0; i < 40; i++ {
		k := calRecord{Name: fmt.Sprintf("k%d", i), Vals: make([]float64, 20), Tags: map[string]string{"a": "b", "c": fmt.Sprint(i)}}
		for j := range k.Vals {
			k.Vals[j] = float64(i*j) / 7
		}
		doc.Kids = append(doc.Kids, k)
	}
	return doc
}()

var (
	calBuf bytes.Buffer
	calEnc = json.NewEncoder(&calBuf)
	calOut calRecord
)

// calKernel runs one JSON round trip of calDoc, encoding into a reused
// buffer and decoding into a reused value.
func calKernel() {
	calBuf.Reset()
	err := calEnc.Encode(calDoc)
	if err == nil {
		err = json.Unmarshal(calBuf.Bytes(), &calOut)
	}
	if err != nil || len(calOut.Kids) != len(calDoc.Kids) {
		panic(fmt.Sprintf("calibration round trip failed: %v", err))
	}
}

// serveCalibrator is the calibrator child's loop: for each line of r
// holding a CPU time in nanoseconds, it runs the kernel until it has
// taken that long and answers with the CPU time taken and the round
// trips run.
func serveCalibrator(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		ns, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return err
		}
		var cpu time.Duration
		runs := 0
		for cpu < time.Duration(ns) {
			c0 := selfCPU()
			calKernel()
			cpu += selfCPU() - c0
			runs++
		}
		if _, err := fmt.Fprintf(w, "%d %d\n", cpu.Nanoseconds(), runs); err != nil {
			return err
		}
	}
	return sc.Err()
}

// calibrator is the running calibrator child. It inherits this
// process's CPU pinning.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), calibratorEnv+"=1", "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// run has the child run the kernel for at least d of CPU time.
func (c *calibrator) run(d time.Duration) (cpu time.Duration, runs int, err error) {
	if _, err := fmt.Fprintf(c.in, "%d\n", d.Nanoseconds()); err != nil {
		return 0, 0, err
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("calibrator: %w", err)
	}
	var ns int64
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d %d", &ns, &runs); err != nil {
		return 0, 0, fmt.Errorf("calibrator: %q: %w", line, err)
	}
	return time.Duration(ns), runs, nil
}

// stop ends the child and waits for it.
func (c *calibrator) stop() {
	c.in.Close() //nolint:errcheck // the child exits on EOF either way
	c.cmd.Wait() //nolint:errcheck
}

// hostSpeed accumulates the calibration of one measurement.
type hostSpeed struct {
	cal  *calibrator
	cpu  time.Duration
	runs int
	err  error
}

// until calibrates until the calibration's CPU time reaches d. The first
// failure is kept in err and stops further calibration.
func (h *hostSpeed) until(d time.Duration) {
	if h.err != nil || h.cpu >= d {
		return
	}
	cpu, runs, err := h.cal.run(d - h.cpu)
	h.cpu += cpu
	h.runs += runs
	h.err = err
}

// slowdown is how much slower than on the reference host the kernel
// ran: 1 at reference speed, above 1 when slower. A duration divides by
// it and a rate multiplies by it to read as on the reference host.
func (h hostSpeed) slowdown() float64 {
	if h.runs == 0 {
		return math.NaN()
	}
	return refCalRate * h.cpu.Seconds() / float64(h.runs)
}
