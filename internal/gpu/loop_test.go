package gpu

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// TestWorkerPanicReachesRun: a panic while a pool worker steps an SM makes
// run panic on its caller, after the barrier, with the original value and
// the worker's stack, and the pool still closes. Unrecovered, the panic
// would end the process from the worker goroutine, where no caller's
// recover can reach it.
func TestWorkerPanicReachesRun(t *testing.T) {
	const fault = "injected SM fault"
	stepped := make([]bool, 4)
	p := newWorkerPool(len(stepped), 2, func(i int) {
		if i == 1 {
			panic(fault)
		}
		stepped[i] = true
	})
	func() {
		defer func() {
			wp, ok := recover().(*workerPanic)
			if !ok {
				t.Fatal("run did not panic with a *workerPanic")
			}
			if wp.value != fault {
				t.Errorf("panic value %v, want %q", wp.value, fault)
			}
			// The worker's own frames: the step that panicked and the pool
			// goroutine that called it.
			for _, frame := range []string{"TestWorkerPanicReachesRun.func1", "newWorkerPool.func1"} {
				if !bytes.Contains(wp.stack, []byte(frame)) {
					t.Errorf("worker stack lacks %s:\n%s", frame, wp.stack)
				}
			}
		}()
		p.run()
	}()
	// Worker 0 stepped its whole share; worker 1's ended at the panic.
	if want := []bool{true, false, true, false}; !slices.Equal(stepped, want) {
		t.Errorf("stepped %v, want %v", stepped, want)
	}
	closed := make(chan struct{})
	go func() {
		p.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("close did not return after the panicking run")
	}
}
