package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The daemon and the gateway run in a server process of their own, so the
// load generator is not scheduled on the same Go runtime as the program
// it measures (a timer-driven sender would wait behind CPU-bound scans
// for up to a preemption interval). The server process is this binary
// started with --serve; it reads line commands on standard input and
// answers one line each on standard output:
//
//	model <n>\n<n bytes>     load the model (first, once; no answer)
//	start <kind> <cache>     start a daemon or a gateway+daemon with cold
//	                         caches: "up <id> <front URL> <daemon URL>"
//	stop <id>                stop it: "down <id>"
//	heap                     peak heap bytes since the last heap: "heap <n>"
//
// A failed command answers "err <message>". End of input stops every
// server and exits.

// serveMain runs the server process.
func serveMain(stdin io.Reader, stdout io.Writer) error {
	in := bufio.NewReader(stdin)
	var n int
	if _, err := fmt.Fscanf(in, "model %d\n", &n); err != nil {
		return fmt.Errorf("read model header: %w", err)
	}
	model := make([]byte, n)
	if _, err := io.ReadFull(in, model); err != nil {
		return fmt.Errorf("read model: %w", err)
	}
	heap := startHeapSampler(5 * time.Millisecond)
	defer heap.finish()
	running := map[int]func(){}
	defer func() {
		for _, stop := range running {
			stop()
		}
	}()
	last := 0
	for {
		line, err := in.ReadString('\n')
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		reply, err := func(f []string) (string, error) {
			switch {
			case len(f) == 3 && f[0] == "start":
				cache, err := strconv.Atoi(f[2])
				if err != nil {
					return "", err
				}
				last++
				switch f[1] {
				case "daemon":
					d, err := startDaemon(model, cache)
					if err != nil {
						return "", err
					}
					running[last] = d.stop
					return fmt.Sprintf("up %d %s %s", last, d.svc.url, d.svc.url), nil
				case "gateway":
					g, err := startGateway(model, cache)
					if err != nil {
						return "", err
					}
					running[last] = g.stop
					return fmt.Sprintf("up %d %s %s", last, g.svc.url, g.backend.svc.url), nil
				}
			case len(f) == 2 && f[0] == "stop":
				id, err := strconv.Atoi(f[1])
				if err != nil || running[id] == nil {
					return "", fmt.Errorf("no server %q", f[1])
				}
				running[id]()
				delete(running, id)
				return "down " + f[1], nil
			case len(f) == 1 && f[0] == "heap":
				return fmt.Sprintf("heap %d", heap.take()), nil
			}
			return "", fmt.Errorf("bad command %q", strings.TrimSpace(line))
		}(strings.Fields(line))
		if err != nil {
			reply = "err " + strings.ReplaceAll(err.Error(), "\n", " ")
		}
		if _, err := fmt.Fprintln(stdout, reply); err != nil {
			return err
		}
	}
}

// remote is the benchmark's handle on its server process.
type remote struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	mu  sync.Mutex
	out *bufio.Reader
}

// startRemote starts the server process and hands it the model.
func startRemote(model []byte) (*remote, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--serve")
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
		return nil, fmt.Errorf("start server process: %w", err)
	}
	r := &remote{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if _, err := fmt.Fprintf(in, "model %d\n", len(model)); err == nil {
		_, err = in.Write(model)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("send model to server process: %w", err)
	}
	return r, nil
}

// call sends one command and returns the fields of its answer.
func (r *remote) call(cmd string) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := fmt.Fprintln(r.in, cmd); err != nil {
		return nil, fmt.Errorf("server process: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("server process: %w", err)
	}
	f := strings.Fields(line)
	if len(f) == 0 || f[0] == "err" {
		return nil, fmt.Errorf("server process: %s", strings.TrimSpace(strings.TrimPrefix(line, "err")))
	}
	return f, nil
}

// start brings up a server and returns its front URL, its daemon URL and
// the function that stops it.
func (r *remote) start(kind string, cacheEntries int) (url, daemonURL string, stop func(), err error) {
	f, err := r.call(fmt.Sprintf("start %s %d", kind, cacheEntries))
	if err != nil {
		return "", "", nil, err
	}
	if len(f) != 4 {
		return "", "", nil, fmt.Errorf("server process: bad answer %q", f)
	}
	return f[2], f[3], func() { _, _ = r.call("stop " + f[1]) }, nil
}

// heapPeak returns the server process's peak heap bytes since the last call.
func (r *remote) heapPeak() (uint64, error) {
	f, err := r.call("heap")
	if err != nil {
		return 0, err
	}
	if len(f) != 2 {
		return 0, fmt.Errorf("server process: bad answer %q", f)
	}
	return strconv.ParseUint(f[1], 10, 64)
}

// close ends the server process and waits for it, killing it if it has
// not exited after 10 s.
func (r *remote) close() {
	r.in.Close()
	done := make(chan struct{})
	go func() {
		_ = r.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = r.cmd.Process.Kill()
		<-done
	}
}
