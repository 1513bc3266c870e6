package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"panda"
)

const readyTimeout = 60 * time.Second

// sut is the system under test: the panda-serve processes of one start.
type sut struct {
	procs   []*exec.Cmd
	exited  []chan struct{}
	addrs   []string // query addresses, rank order
	metrics []string // /metrics URLs, rank order
	logs    []string
}

// freeAddrs finds n free loopback ports and releases them for the program.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startSUT spawns the serving processes and returns once every one of them
// answers a protocol handshake, with the time that took. panda-serve gets
// only its input file, its addresses and a metrics listener: no tuning
// flags, so a change to a default is measured as the program ships it.
func startSUT(b *bench, cluster bool, input string) (*sut, time.Duration, error) {
	ranks := 1
	if cluster {
		ranks = clusterRanks
	}
	ports, err := freeAddrs(3 * ranks)
	if err != nil {
		return nil, 0, err
	}
	s := &sut{addrs: ports[:ranks]}
	mesh, metricsAddrs := ports[ranks:2*ranks], ports[2*ranks:]
	bin := filepath.Join(b.out, "bin", "panda-serve")
	start := time.Now()
	for r := 0; r < ranks; r++ {
		args := []string{"-snapshot", input, "-addr", s.addrs[0], "-metrics", metricsAddrs[0]}
		if cluster {
			args = []string{"-cluster", "-rank", strconv.Itoa(r), "-in", input,
				"-mesh", strings.Join(mesh, ","), "-serve", strings.Join(s.addrs, ","), "-metrics", metricsAddrs[r]}
		}
		if err := s.spawn(b, bin, args); err != nil {
			s.stop()
			return nil, 0, err
		}
		s.metrics = append(s.metrics, "http://"+metricsAddrs[r]+"/metrics")
	}
	deadline := start.Add(readyTimeout)
	for r, addr := range s.addrs {
		if err := s.awaitHandshake(r, addr, deadline); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(start), nil
}

// spawn starts one process with its output in a log file. The process is
// killed if the benchmark dies first.
func (s *sut) spawn(b *bench, bin string, args []string) error {
	logPath := filepath.Join(b.work, fmt.Sprintf("panda-serve-%d.log", len(s.procs)))
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting panda-serve: %w", err)
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not a result
		close(exited)
	}()
	s.procs = append(s.procs, cmd)
	s.exited = append(s.exited, exited)
	s.logs = append(s.logs, logPath)
	return nil
}

func (s *sut) awaitHandshake(r int, addr string, deadline time.Time) error {
	for {
		c, err := panda.Dial(addr)
		if err == nil {
			return c.Close()
		}
		select {
		case <-s.exited[r]:
			log, _ := os.ReadFile(s.logs[r])
			return fmt.Errorf("panda-serve rank %d exited before answering:\n%s", r, log)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("panda-serve rank %d did not answer within %v: %w", r, readyTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks every process to drain and exit, kills any that has not exited
// after 15 s, and returns once all have ended.
func (s *sut) stop() {
	for _, p := range s.procs {
		_ = p.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	for i, p := range s.procs {
		select {
		case <-s.exited[i]:
		case <-time.After(15 * time.Second):
			_ = p.Process.Kill()
			<-s.exited[i]
		}
	}
}

// cpu is the user+system CPU time of every process.
func (s *sut) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range s.procs {
		d, err := procCPU(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func (s *sut) scrapeAll() ([]exposition, error) {
	out := make([]exposition, len(s.metrics))
	for r, url := range s.metrics {
		e, err := scrape(url)
		if err != nil {
			return nil, err
		}
		out[r] = e
	}
	return out, nil
}
