package autoscale

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"sirius/internal/cluster"
)

// ProcPool runs sirius-server replicas as child processes on loopback
// ports. Each replica binds a port the kernel picks (-addr
// 127.0.0.1:0) and, passed -frontend, registers the address it actually
// bound, so it takes traffic once its pipeline is up; Drain sends SIGTERM,
// which triggers the server's own graceful sequence (readiness off →
// deregister → bounded connection drain) before the process exits.
type ProcPool struct {
	Bin      string   // sirius-server binary path
	Frontend string   // frontend base URL replicas register with
	Args     []string // extra sirius-server flags for every replica

	mu    sync.Mutex
	procs []*managedProc // oldest first
	seq   int
}

type managedProc struct {
	id   string
	cmd  *exec.Cmd
	done chan struct{}
}

// Spawn launches one replica on a loopback port the kernel picks.
func (p *ProcPool) Spawn() error {
	args := []string{"-addr", "127.0.0.1:0", "-frontend", p.Frontend}
	args = append(args, p.Args...)
	// CommandContext (never cancelled here) rather than Command: Cancel
	// and WaitDelay only take effect on context-created commands.
	cmd := exec.CommandContext(context.Background(), p.Bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// SIGTERM on Cancel so an aborted pool still drains gracefully;
	// WaitDelay bounds how long a wedged child can linger after that.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = cluster.DrainDeadline
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("autoscale: starting %s: %w", p.Bin, err)
	}

	p.mu.Lock()
	p.seq++
	mp := &managedProc{id: fmt.Sprintf("replica-%d", p.seq), cmd: cmd, done: make(chan struct{})}
	p.procs = append(p.procs, mp)
	p.mu.Unlock()

	// Reap on exit — a replica that crashes (or finishes draining)
	// leaves the pool so Live reflects reality and the controller can
	// respawn it if the plan still wants it.
	go func() {
		_ = cmd.Wait()
		close(mp.done)
		p.mu.Lock()
		for i, q := range p.procs {
			if q == mp {
				p.procs = append(p.procs[:i], p.procs[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
	}()
	return nil
}

// Drain gracefully removes the newest replica: SIGTERM starts the
// server's own unready → deregister → shutdown sequence. The process
// is dropped from Live immediately (it has left the serving pool even
// while old connections finish).
func (p *ProcPool) Drain() error {
	p.mu.Lock()
	if len(p.procs) == 0 {
		p.mu.Unlock()
		return fmt.Errorf("autoscale: no replicas to drain")
	}
	mp := p.procs[len(p.procs)-1]
	p.procs = p.procs[:len(p.procs)-1]
	p.mu.Unlock()
	if err := mp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("autoscale: draining %s: %w", mp.id, err)
	}
	return nil
}

// Live returns the number of managed replicas (including starting ones).
func (p *ProcPool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.procs)
}

// StopAll SIGTERMs every replica and waits (up to timeout) for them to
// exit — the pool's own graceful shutdown.
func (p *ProcPool) StopAll(timeout time.Duration) {
	p.mu.Lock()
	procs := append([]*managedProc(nil), p.procs...)
	p.mu.Unlock()
	for _, mp := range procs {
		_ = mp.cmd.Process.Signal(syscall.SIGTERM)
	}
	deadline := time.After(timeout)
	for _, mp := range procs {
		select {
		case <-mp.done:
		case <-deadline:
			_ = mp.cmd.Process.Kill()
		}
	}
}
