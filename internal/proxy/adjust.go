package proxy

import (
	"fmt"
	"sync/atomic"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// applyRequirements performs every onion adjustment a query needs before it
// can execute (§3.2, step 2 of query processing). In training mode it only
// records what would happen.
func (p *Proxy) applyRequirements(an *analysis) error {
	if len(an.unsupported) > 0 && !p.opts.Training {
		return fmt.Errorf("proxy: query not executable over encrypted data: %s", an.unsupported[0])
	}
	for _, req := range an.reqs {
		if err := p.applyRequirement(req); err != nil {
			if p.opts.Training {
				p.trainLog = append(p.trainLog, TrainEvent{
					Table: req.cm.Table.Logical, Column: req.cm.Logical,
					Warning: err.Error(),
				})
				continue
			}
			return err
		}
	}
	if p.opts.Training {
		for _, reason := range an.unsupported {
			p.trainLog = append(p.trainLog, TrainEvent{Warning: reason})
		}
	}
	return nil
}

func (p *Proxy) applyRequirement(req requirement) error {
	switch req.class {
	case onion.ClassNone:
		return nil
	case onion.ClassPlaintext:
		if !req.cm.NeedsPlaintext {
			req.cm.NeedsPlaintext = true
			p.persistMetaLocked() //nolint:errcheck // §8.3 reporting flag; the query fails below regardless
		}
		return fmt.Errorf("proxy: %s.%s requires plaintext computation",
			req.cm.Table.Logical, req.cm.Logical)
	case onion.ClassEquality:
		if err := p.maybeResync(req.cm); err != nil {
			return err
		}
		return p.lowerTo(req.cm, onion.Eq, onion.DET)
	case onion.ClassOrder:
		if err := p.maybeResync(req.cm); err != nil {
			return err
		}
		return p.lowerTo(req.cm, onion.Ord, onion.OPE)
	case onion.ClassSearch:
		// Search onion starts (and stays) at SEARCH; nothing to strip.
		if !req.cm.HasOnion(onion.Search) {
			return fmt.Errorf("proxy: %s.%s has no Search onion",
				req.cm.Table.Logical, req.cm.Logical)
		}
		if !req.cm.UsedSearch {
			req.cm.UsedSearch = true
			return p.persistMetaLocked()
		}
		return nil
	case onion.ClassSum, onion.ClassIncrement:
		if !req.cm.HasOnion(onion.Add) {
			return fmt.Errorf("proxy: %s.%s has no Add onion",
				req.cm.Table.Logical, req.cm.Logical)
		}
		if !req.cm.UsedSum {
			req.cm.UsedSum = true
			return p.persistMetaLocked()
		}
		return nil
	case onion.ClassJoin:
		if err := p.maybeResync(req.cm); err != nil {
			return err
		}
		if err := p.maybeResync(req.joinWith); err != nil {
			return err
		}
		return p.adjustJoin(req.cm, req.joinWith)
	case onion.ClassRangeJoin:
		return p.adjustRangeJoin(req.cm, req.joinWith)
	}
	return fmt.Errorf("proxy: unknown computation class %v", req.class)
}

// lowerTo peels onion o of column cm down to layer target by issuing
// server-side DECRYPT_RND UPDATEs inside a transaction (§3.2). A no-op if
// already there.
func (p *Proxy) lowerTo(cm *ColumnMeta, o onion.Onion, target onion.Layer) error {
	st := cm.Onions[o]
	if st == nil {
		return fmt.Errorf("proxy: %s.%s has no %s onion (type %s)",
			cm.Table.Logical, cm.Logical, o, cm.Type)
	}
	if st.AtOrBelow(target) {
		return nil
	}
	if err := cm.checkMinEnc(target); err != nil {
		return err
	}
	layers, err := st.LayersAbove(target)
	if err != nil {
		return err
	}
	if p.opts.Training {
		p.trainLog = append(p.trainLog, TrainEvent{
			Table: cm.Table.Logical, Column: cm.Logical, Onion: o, Layer: target,
		})
		for range layers {
			st.Descend()
		}
		return nil
	}

	// Onion decryption executes autonomously — the equivalent of the
	// paper's separate-transaction adjustment (§3.2): it must not be
	// undone by a client ROLLBACK, because the proxy's layer metadata
	// advances with it. Atomicity against concurrent clients comes from
	// the proxy's write lock (held here) plus the DBMS statement lock.
	// Atomicity against crashes comes from the WAL: the server-side
	// UPDATE and the sealed metadata snapshot recording the descended
	// layer commit in one batch, so recovery always sees a ciphertext
	// column and a layer pointer that agree. An open transaction that has
	// written this table blocks the adjustment (conflict error, not a
	// wait): its buffered rows were encrypted at the current layer and
	// would bypass the re-encrypting UPDATE below.
	if err := p.adjustBlocked(cm.Table); err != nil {
		return err
	}
	for _, layer := range layers {
		if layer != onion.RND {
			return fmt.Errorf("proxy: cannot strip non-RND layer %s of %s onion", layer, o)
		}
		key := p.colKey(cm, o, onion.RND)
		upd := &sqlparser.UpdateStmt{
			Table: cm.Table.Anon,
			Assignments: []sqlparser.Assignment{{
				Column: cm.onionCol(o),
				Value: &sqlparser.FuncCall{
					Name: "decrypt_rnd",
					Args: []sqlparser.Expr{
						&sqlparser.BytesLit{V: key},
						&sqlparser.ColRef{Column: cm.onionCol(o)},
						&sqlparser.ColRef{Column: cm.ivCol()},
					},
				},
			}},
		}
		p.metaMu.Lock()
		st.Descend()
		sealed, err := p.sealedMetaLocked()
		if err == nil {
			// The UPDATE carries the peeled layer's key: shipping it to
			// the DBMS for an in-place re-encryption is the paper's
			// adjustable-onion protocol (§3.1) — the key reveals only the
			// layer being given up, never an inner one.
			_, err = p.db.ExecAutonomousWithMeta(upd, sealed) //cryptdb:sink-ok onion layer key ships to the DBMS to peel RND in place (§3.1)
		}
		if err != nil {
			if !stmtApplied(err) {
				st.Cur-- // the layer really was not stripped
			}
			p.metaMu.Unlock()
			return fmt.Errorf("proxy: onion adjustment: %w", err)
		}
		p.metaMu.Unlock()
		atomic.AddInt64(&p.stats.OnionAdjustments, 1)
	}
	return p.materializeIndexes(cm)
}

// adjustJoin brings both columns' JAdj onions to the JOIN layer and re-keys
// them to a common join-base: the first column of the transitivity group in
// lexicographic (table, column) order (§3.4).
func (p *Proxy) adjustJoin(a, b *ColumnMeta) error {
	for _, cm := range []*ColumnMeta{a, b} {
		if err := cm.checkMinEnc(onion.JOIN); err != nil {
			return err
		}
		if err := p.lowerTo(cm, onion.JAdj, onion.JOIN); err != nil {
			return err
		}
	}

	ra, rb := a.compressRoot(), b.compressRoot()
	base := ra
	if ra != rb {
		if lexAfter(ra, rb) {
			base = rb
		}
		ra.joinGroup = base
		rb.joinGroup = base
	}

	if p.opts.Training {
		p.trainLog = append(p.trainLog, TrainEvent{
			Table: b.Table.Logical, Column: b.Logical,
			Onion: onion.JAdj, Layer: onion.JOIN,
		})
		return nil
	}

	// Re-key the two queried columns to the group's base key. Deltas are
	// computed from each column's *current* effective key, so columns
	// merged into the group earlier converge lazily the next time they
	// are joined (the paper bounds total transitions by n(n-1)/2).
	baseKey := p.joinKey(base)
	for _, cm := range []*ColumnMeta{a, b} {
		cur := p.joinKey(cm)
		delta, err := baseKey.Delta(cur)
		if err != nil {
			return err
		}
		if delta.Cmp(bigOne) == 0 {
			continue // same key already
		}
		// Same rule as lowerTo: a buffered write would miss the re-keying.
		if err := p.adjustBlocked(cm.Table); err != nil {
			return err
		}
		upd := &sqlparser.UpdateStmt{
			Table: cm.Table.Anon,
			Assignments: []sqlparser.Assignment{{
				Column: cm.onionCol(onion.JAdj),
				Value: &sqlparser.FuncCall{
					Name: "join_adj",
					Args: []sqlparser.Expr{
						&sqlparser.ColRef{Column: cm.onionCol(onion.JAdj)},
						&sqlparser.BytesLit{V: delta.Bytes()},
					},
				},
			}},
		}
		// The re-keying UPDATE and the metadata naming the new effective
		// key (by reference to the base column, never by value) commit in
		// one WAL batch.
		p.metaMu.Lock()
		cm.mu.Lock()
		oldKey := cm.joinKey
		oldRefT, oldRefC := cm.joinRefT, cm.joinRefC
		cm.joinKey = baseKey
		cm.joinRefT, cm.joinRefC = base.joinRefT, base.joinRefC
		cm.mu.Unlock()
		sealed, err := p.sealedMetaLocked()
		if err == nil {
			// JOIN-ADJ adjustment sends the delta that re-keys one
			// column's ciphertexts onto the other's key (§3.4); the delta
			// exposes neither column's key.
			_, err = p.db.ExecAutonomousWithMeta(upd, sealed) //cryptdb:sink-ok join-adjustment delta ships to the DBMS to re-key ciphertexts in place (§3.4)
		}
		if err != nil {
			if !stmtApplied(err) {
				cm.mu.Lock()
				cm.joinKey = oldKey
				cm.joinRefT, cm.joinRefC = oldRefT, oldRefC
				cm.mu.Unlock()
			}
			p.metaMu.Unlock()
			return fmt.Errorf("proxy: join adjustment: %w", err)
		}
		p.metaMu.Unlock()
		atomic.AddInt64(&p.stats.OnionAdjustments, 1)
		if err := p.materializeIndexes(cm); err != nil {
			return err
		}
	}
	// Group-root moves are metadata-only; persist them even when both
	// deltas were identity.
	return p.persistMetaLocked()
}

func lexAfter(a, b *ColumnMeta) bool {
	if a.Table.Logical != b.Table.Logical {
		return a.Table.Logical > b.Table.Logical
	}
	return a.Logical > b.Logical
}

// adjustRangeJoin verifies a declared OPE-JOIN pair and exposes both Ord
// onions at OPE.
func (p *Proxy) adjustRangeJoin(a, b *ColumnMeta) error {
	if a.opeShared == nil || b.opeShared == nil || string(a.opeShared) != string(b.opeShared) {
		return fmt.Errorf("proxy: range join between %s.%s and %s.%s requires DeclareOPEJoin before data load (§3.4)",
			a.Table.Logical, a.Logical, b.Table.Logical, b.Logical)
	}
	if err := p.lowerTo(a, onion.Ord, onion.OPE); err != nil {
		return err
	}
	return p.lowerTo(b, onion.Ord, onion.OPE)
}

// maybeResync re-materializes a column's Eq/JAdj/Ord onions from its Add
// onion after HOM increments made them stale — the two-query strategy of
// §3.3, applied lazily at column granularity.
func (p *Proxy) maybeResync(cm *ColumnMeta) error {
	if cm == nil || !cm.Stale[onion.Eq] {
		return nil
	}
	if p.opts.Training {
		cm.Stale = make(map[onion.Onion]bool)
		return nil
	}
	// The per-row rewrite below re-materializes every onion from the Add
	// onion; rows buffered by an open transaction would be skipped and
	// then committed stale, so refuse (retryable) while one is open.
	if err := p.adjustBlocked(cm.Table); err != nil {
		return err
	}

	sel := &sqlparser.SelectStmt{
		Exprs: []sqlparser.SelectExpr{
			{Expr: &sqlparser.ColRef{Column: "rid"}},
			{Expr: &sqlparser.ColRef{Column: cm.onionCol(onion.Add)}},
		},
		From: []sqlparser.TableRef{{Table: cm.Table.Anon}},
	}
	res, err := p.db.Exec(sel)
	if err != nil {
		return fmt.Errorf("proxy: resync read: %w", err)
	}
	for _, row := range res.Rows {
		pt, err := p.decryptAdd(cm, row[1])
		if err != nil {
			return fmt.Errorf("proxy: resync decrypt: %w", err)
		}
		iv, err := newIV()
		if err != nil {
			return err
		}
		assigns := []sqlparser.Assignment{{Column: cm.ivCol(), Value: &sqlparser.BytesLit{V: iv}}}
		for _, o := range []onion.Onion{onion.Eq, onion.JAdj, onion.Ord} {
			if !cm.HasOnion(o) {
				continue
			}
			v, err := p.encryptOnion(cm, o, pt, iv)
			if err != nil {
				return err
			}
			assigns = append(assigns, sqlparser.Assignment{Column: cm.onionCol(o), Value: valueToExpr(v)})
		}
		upd := &sqlparser.UpdateStmt{
			Table:       cm.Table.Anon,
			Assignments: assigns,
			Where: &sqlparser.BinaryExpr{
				Op: "=",
				L:  &sqlparser.ColRef{Column: "rid"},
				R:  &sqlparser.IntLit{V: row[0].I},
			},
		}
		if _, err := p.db.ExecAutonomous(upd); err != nil {
			return fmt.Errorf("proxy: resync write: %w", err)
		}
	}
	cm.Stale = make(map[onion.Onion]bool)
	atomic.AddInt64(&p.stats.Resyncs, 1)
	// Persist the cleared staleness. A crash before this point leaves the
	// stale flags set, which only costs a redundant (idempotent) resync
	// on the next restart — never a stale answer.
	return p.persistMetaLocked()
}

// valueToExpr renders a sqldb value as a literal AST node for server
// queries.
func valueToExpr(v sqldb.Value) sqlparser.Expr {
	switch v.Kind {
	case sqldb.KindNull:
		return &sqlparser.NullLit{}
	case sqldb.KindInt:
		return &sqlparser.IntLit{V: v.I}
	case sqldb.KindText:
		return &sqlparser.StrLit{V: v.S}
	case sqldb.KindBlob:
		return &sqlparser.BytesLit{V: v.B}
	}
	return &sqlparser.NullLit{}
}
