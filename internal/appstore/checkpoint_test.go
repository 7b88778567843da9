package appstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/staticanalysis"
)

// TestStudyCheckpointResumeIdentity is the crash-safety headline: a study
// interrupted mid-run and resumed from its journal produces a Report
// identical to an uninterrupted run, and the journal is deleted once the
// study completes.
func TestStudyCheckpointResumeIdentity(t *testing.T) {
	const (
		seed = int64(99)
		n    = 2*studyChunkSize + 137 // three chunks, last one partial
	)
	want, err := Study(seed, n)
	if err != nil {
		t.Fatalf("reference Study: %v", err)
	}

	path := filepath.Join(t.TempDir(), "study.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = StudyWith(seed, n, StudyOptions{
		Workers:        1,
		Ctx:            ctx,
		CheckpointPath: path,
		Progress:       func(scanned, total int) { cancel() }, // kill after the first chunk
	})
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("interrupted study returned %v, want *InterruptedError", err)
	}
	if ie.ChunksTotal != 3 || ie.ChunksDone < 1 {
		t.Fatalf("InterruptedError = %+v, want 3 chunks total with >= 1 done", ie)
	}
	if !strings.Contains(ie.Error(), "resumable from chunk") {
		t.Fatalf("error %q does not name the resume point", ie.Error())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal missing after interruption: %v", err)
	}

	got, err := StudyWith(seed, n, StudyOptions{Workers: 2, CheckpointPath: path})
	if err != nil {
		t.Fatalf("resumed StudyWith: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed report differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal not deleted after successful completion (stat err %v)", err)
	}
}

// TestStudyCheckpointIdentityMismatch: a journal written for one (seed, n)
// must not silently corrupt a different study.
func TestStudyCheckpointIdentityMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.ckpt")
	cp, err := openCheckpoint(path, 1, 10*studyChunkSize, staticanalysis.Tier0, PaperRates())
	if err != nil {
		t.Fatalf("openCheckpoint: %v", err)
	}
	cp.close()
	_, err = StudyWith(2, 10*studyChunkSize, StudyOptions{CheckpointPath: path})
	if err == nil || !strings.Contains(err.Error(), "different study") {
		t.Fatalf("mismatched journal accepted: err = %v", err)
	}
}

// TestCheckpointTornLineTolerated: a crash mid-append leaves a torn trailing
// line; reopening must keep every fully written chunk and drop the torn one.
func TestCheckpointTornLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.ckpt")
	cp, err := openCheckpoint(path, 7, 3*studyChunkSize, staticanalysis.Tier0, PaperRates())
	if err != nil {
		t.Fatalf("openCheckpoint: %v", err)
	}
	if err := cp.record(0, Report{Total: studyChunkSize, CustomToast: 11}); err != nil {
		t.Fatalf("record: %v", err)
	}
	cp.close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.WriteString(`{"chunk":1,"rep`); err != nil {
		t.Fatalf("append torn line: %v", err)
	}
	f.Close()

	cp2, err := openCheckpoint(path, 7, 3*studyChunkSize, staticanalysis.Tier0, PaperRates())
	if err != nil {
		t.Fatalf("reopen with torn line: %v", err)
	}
	rep, ok := cp2.done[0]
	if !ok {
		t.Fatal("fully written chunk 0 lost on reopen")
	}
	if rep.Total != studyChunkSize || rep.CustomToast != 11 {
		t.Fatalf("chunk 0 report corrupted: %+v", rep)
	}
	if _, ok := cp2.done[1]; ok {
		t.Fatal("torn chunk 1 line accepted as complete")
	}

	// A chunk recorded after resuming over the torn line must start on a
	// clean line and survive the next resume.
	if err := cp2.record(1, Report{Total: studyChunkSize, CustomToast: 13}); err != nil {
		t.Fatalf("record after resume: %v", err)
	}
	cp2.close()
	cp3, err := openCheckpoint(path, 7, 3*studyChunkSize, staticanalysis.Tier0, PaperRates())
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer cp3.close()
	if rep, ok := cp3.done[1]; !ok || rep.CustomToast != 13 {
		t.Fatalf("chunk 1 recorded after resume lost across reopen: ok=%v rep=%+v", ok, rep)
	}
	if _, ok := cp3.done[0]; !ok {
		t.Fatal("chunk 0 lost on second reopen")
	}
}
