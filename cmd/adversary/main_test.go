package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lowerbound"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"flag", "queue", "cas-register"} {
		if !strings.Contains(out, name) {
			t.Errorf("list output missing %q", name)
		}
	}
}

func TestRunAttack(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-alg", "fixed-waiters", "-n", "16", "-c", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "verdict:        exceeded") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if !strings.Contains(out, "regular (6.6):  true") {
		t.Fatalf("missing regularity audit:\n%s", out)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-alg", "nope"}, &buf); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

// rescoreCase renders a certificate's RMR accounting in one canonical
// string — the shared helper of the batch/streaming cross-check below.
// The adversary prices its history through the batch model.Score during
// construction; re-pricing the same events event by event through the
// streaming DSM accumulator, the single-pass scoring path of the run
// pipeline, must reproduce every number byte-identically.
func rescoreCase(cert *lowerbound.Certificate) (batch, streaming string) {
	acc := model.ModelDSM.Begin(cert.Processes, cert.OwnerFunc())
	for _, ev := range cert.Events {
		acc.Add(ev)
	}
	rep := model.FinalReport(acc)
	// SignalerRMRs is recorded only by certificates built around a goose
	// chase (on a safety verdict the field is deliberately left 0 and the
	// signaler attached for reporting alone), so the per-process
	// attribution is cross-checked exactly where the certificate carries
	// it.
	batch = fmt.Sprintf("total=%d", cert.TotalRMRs)
	streaming = fmt.Sprintf("total=%d", rep.Total)
	if cert.SignalerPID != memsim.NoOwner && cert.Verdict != lowerbound.VerdictSafety {
		batch += fmt.Sprintf(" signaler=%d", cert.SignalerRMRs)
		streaming += fmt.Sprintf(" signaler=%d", rep.PerProc[cert.SignalerPID])
	}
	return batch, streaming
}

// TestCertificatesRescoreStreaming: for every algorithm -list would
// print, at several scales, the certificate's RMR totals re-score
// byte-identically through the streaming model.Accumulator path.
func TestCertificatesRescoreStreaming(t *testing.T) {
	for _, alg := range signal.All() {
		if !alg.Variant.Polling {
			continue // exactly the -list filter
		}
		alg := alg
		for _, n := range []int{8, 16} {
			t.Run(fmt.Sprintf("%s/n=%d", alg.Name, n), func(t *testing.T) {
				cert, err := lowerbound.Run(lowerbound.Config{
					Algorithm:      alg,
					N:              n,
					C:              2,
					VerifyErasures: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if cert.Processes != n || len(cert.Owners) == 0 {
					t.Fatalf("certificate lacks rescoring data: processes=%d owners=%d",
						cert.Processes, len(cert.Owners))
				}
				batch, streaming := rescoreCase(cert)
				if batch != streaming {
					t.Fatalf("verdict %s: batch and streaming accounting diverged:\n batch:     %s\n streaming: %s",
						cert.Verdict, batch, streaming)
				}
				t.Logf("verdict %s: %s (both paths)", cert.Verdict, batch)
			})
		}
	}
}
