package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smarteryou/internal/features"
	"smarteryou/internal/transport"
)

// benchKey is the HMAC key every benchmark server and client share.
var benchKey = []byte("perfbench-hmac-key")

// rpcTimeout bounds one round trip; a stalled server fails the op
// rather than the run.
const rpcTimeout = 30 * time.Second

func isBusy(err error) bool {
	var busy *transport.BusyError
	return errors.As(err, &busy)
}

// newSessions dials n keep-alive sessions to addr.
func newSessions(addr string, n int) (*transport.Client, []*transport.Session, error) {
	c, err := transport.NewClient(transport.ClientConfig{Addr: addr, Key: benchKey, Timeout: rpcTimeout})
	if err != nil {
		return nil, nil, err
	}
	var out []*transport.Session
	for range n {
		s, err := c.NewSession()
		if err != nil {
			closeSessions(c, out)
			return nil, nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		out = append(out, s)
	}
	return c, out, nil
}

func closeSessions(c *transport.Client, ss []*transport.Session) {
	for _, s := range ss {
		_ = s.Close() // teardown; the server closes its side anyway
	}
	if c != nil {
		_ = c.Close()
	}
}

// stage enrolls every identity and then trains each one, through the
// wire, spreading the identities over the sessions. Training waits for
// every enrollment, so that each model trains against the whole cohort.
func stage(sessions []*transport.Session, ids []identity, windows func(identity) []features.WindowSample, params func(identity) transport.TrainParams) error {
	err := overSessions(sessions, ids, func(s *transport.Session, id identity) error {
		_, err := s.Enroll(id.id, windows(id))
		return err
	})
	if err != nil {
		return err
	}
	return overSessions(sessions, ids, func(s *transport.Session, id identity) error {
		_, err := s.Train(id.id, params(id))
		return err
	})
}

// overSessions runs op for every identity, one goroutine per session, and
// returns the first error.
func overSessions(sessions []*transport.Session, ids []identity, op func(*transport.Session, identity) error) error {
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for w, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ids); i += len(sessions) {
				if err := op(s, ids[i]); err != nil {
					errs[w] = fmt.Errorf("stage %s: %w", ids[i].id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// roundDir returns a fresh directory for one set-up round's store.
func roundDir(cfg config, name string) (string, error) {
	dir, err := os.MkdirTemp(cfg.dir, name+"-")
	if err != nil {
		return "", fmt.Errorf("store directory: %w", err)
	}
	return dir, nil
}

// writeSpans writes a traced run's spans next to the build output.
func writeSpans(tr *Tracer, cfg config, workload string) error {
	return tr.WriteJSONL(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", workload, cfg.seed)))
}
