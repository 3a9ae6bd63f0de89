package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicWrite streams emit into path atomically: the bytes land in a
// temporary file in path's directory, and only a fully written, closed file
// is renamed into place. A reader therefore never observes a truncated
// artifact — on any failure (emit error, close error, rename error) the
// destination keeps whatever it held before and the temporary file is
// removed. The rename is atomic on POSIX filesystems, which is what lets the
// result store treat every *.json file it finds on restart as complete.
func AtomicWrite(path string, emit func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	tmp := f.Name()
	err = emit(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// tmpPrefix marks in-flight temporary files so Open can both skip and sweep
// them: a crash between CreateTemp and Rename leaves only a tmpPrefix file
// behind, never a partial store entry.
const tmpPrefix = ".tmp-"
