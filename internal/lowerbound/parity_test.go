package lowerbound

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/signal"
)

// parityConfigs lists every adversary configuration of the experiment
// tables (E3, E3G and E4, as internal/core runs them) followed by every
// algorithm of the repository at N = 16, c = 2.
func parityConfigs() []Config {
	var cfgs []Config
	for _, alg := range []signal.Algorithm{signal.Flag(), signal.FixedWaiters()} {
		for c := 1; c <= 4; c++ {
			cfgs = append(cfgs, Config{Algorithm: alg, N: 16 * (c + 1), C: c})
		}
	}
	for _, n := range []int{16, 32, 64, 128, 256} {
		cfgs = append(cfgs, Config{Algorithm: signal.FixedWaiters(), N: n, C: 2})
	}
	for _, alg := range []signal.Algorithm{
		signal.CASRegister(), signal.CASRegisterRW(),
		signal.LLSCRegister(), signal.LLSCRegisterRW(),
		signal.QueueSignal(), signal.MultiSignaler(),
	} {
		cfgs = append(cfgs, Config{Algorithm: alg, N: 16, C: 3})
	}
	for _, alg := range signal.All() {
		cfgs = append(cfgs, Config{Algorithm: alg, N: 16, C: 2})
	}
	return cfgs
}

// TestAdversaryCertificateParity: the adversary keeps running counts in
// a ledger and retains no trace unless VerifyErasures asks for one, so the
// switch must not change the outcome. For every configuration, Run with
// VerifyErasures on and off yields deeply equal certificates (trace,
// owners, rounds and regularity included); with it off the live
// execution retains nothing even after the certificate is built; and the
// ledger's per-process RMR counts are the DSM model's score of the
// certificate's trace.
func TestAdversaryCertificateParity(t *testing.T) {
	for _, cfg := range parityConfigs() {
		name := fmt.Sprintf("%s/N=%d/c=%d", cfg.Algorithm.Name, cfg.N, cfg.C)
		t.Run(name, func(t *testing.T) {
			b, err := newBuilder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			off, err := b.run()
			if err != nil {
				if _, onErr := Run(withVerify(cfg)); onErr == nil {
					t.Fatalf("VerifyErasures off failed (%v) but on succeeded", err)
				}
				t.Skipf("the adversary does not accept this configuration: %v", err)
			}
			if n := len(b.exec.Events()); n != 0 {
				t.Errorf("the live execution retained %d events with VerifyErasures off", n)
			}
			if len(off.Events) == 0 {
				t.Errorf("the certificate carries no trace")
			}
			rep := model.ModelDSM.Score(off.Events, off.OwnerFunc(), off.Processes)
			if !slices.Equal(b.led.rmrs, rep.PerProc) {
				t.Errorf("ledger RMRs %v, DSM score of the certificate trace %v", b.led.rmrs, rep.PerProc)
			}
			if off.TotalRMRs != rep.Total {
				t.Errorf("TotalRMRs %d, DSM score of the certificate trace %d", off.TotalRMRs, rep.Total)
			}
			on, err := Run(withVerify(cfg))
			if err != nil {
				t.Fatalf("VerifyErasures on: %v", err)
			}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("certificates differ:\noff: %+v\non:  %+v", summary(off), summary(on))
			}
		})
	}
}

func withVerify(cfg Config) Config {
	cfg.VerifyErasures = true
	return cfg
}

// summary is a certificate without its trace, for failure messages.
func summary(c *Certificate) Certificate {
	s := *c
	s.Events = nil
	return s
}
