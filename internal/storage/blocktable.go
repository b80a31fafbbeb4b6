package storage

import "fmt"

// pageBits sizes a blockTable page: 256 entries, 2 KiB.
const (
	pageBits = 8
	pageLen  = 1 << pageBits
)

// blockPage holds the values of pageLen consecutive block addresses,
// each stored as value+1 so that the zero word means absent.
type blockPage [pageLen]int64

// blockTable maps non-negative virtual block addresses to non-negative
// int64 values without hashing: the directory is indexed by page number
// and a page is allocated the first time one of its addresses is set.
// Lookups and stores are array accesses, walks run in address order,
// and clear keeps the pages for reuse. Memory grows with the highest
// page touched (one pointer per 256 blocks of address space) plus
// 2 KiB per page in use.
type blockTable struct {
	pages []*blockPage
	n     int
}

// split returns the page number and in-page offset of vba.
func split(vba int64) (int, int) {
	if vba < 0 {
		panic(fmt.Sprintf("storage: negative block address %d", vba))
	}
	return int(vba >> pageBits), int(vba & (pageLen - 1))
}

// get reports the value stored for vba.
func (t *blockTable) get(vba int64) (int64, bool) {
	p, i := split(vba)
	if p >= len(t.pages) || t.pages[p] == nil {
		return 0, false
	}
	v := t.pages[p][i]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// has reports whether vba is present.
func (t *blockTable) has(vba int64) bool {
	_, ok := t.get(vba)
	return ok
}

// set stores val (which must be non-negative) for vba and reports
// whether vba was absent before.
func (t *blockTable) set(vba, val int64) bool {
	p, i := split(vba)
	if p >= len(t.pages) {
		t.pages = append(t.pages, make([]*blockPage, p+1-len(t.pages))...)
	}
	pg := t.pages[p]
	if pg == nil {
		pg = new(blockPage)
		t.pages[p] = pg
	}
	added := pg[i] == 0
	if added {
		t.n++
	}
	pg[i] = val + 1
	return added
}

// del removes vba if present.
func (t *blockTable) del(vba int64) {
	p, i := split(vba)
	if p >= len(t.pages) || t.pages[p] == nil || t.pages[p][i] == 0 {
		return
	}
	t.pages[p][i] = 0
	t.n--
}

// len reports how many addresses are present.
func (t *blockTable) len() int { return t.n }

// clear removes every entry, keeping the pages allocated.
func (t *blockTable) clear() {
	if t.n == 0 {
		return
	}
	for _, pg := range t.pages {
		if pg != nil {
			*pg = blockPage{}
		}
	}
	t.n = 0
}

// page returns page p, or nil when it was never allocated.
func (t *blockTable) page(p int) *blockPage {
	if p >= len(t.pages) {
		return nil
	}
	return t.pages[p]
}

// each calls fn for every entry in ascending address order.
func (t *blockTable) each(fn func(vba, val int64)) {
	for p, pg := range t.pages {
		if pg == nil {
			continue
		}
		for i, v := range pg {
			if v != 0 {
				fn(int64(p)<<pageBits|int64(i), v-1)
			}
		}
	}
}
