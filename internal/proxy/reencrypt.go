package proxy

import (
	"fmt"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// RaiseOnion re-encrypts an onion back up to its RND layer — the §3.5.1
// extension ("Onion re-encryption: in cases when an application performs
// infrequent queries requiring a low onion layer, CryptDB could be extended
// to re-encrypt onions back to a higher layer after the infrequent query
// finishes"). The proxy reads every ciphertext in the column, applies the
// RND wrap under the column's stored per-row IVs, and restores the onion
// state, shrinking the leak window of the lower layer.
func (p *Proxy) RaiseOnion(table, col string, o onion.Onion) error {
	p.mu.Lock()
	defer p.mu.Unlock()

	cm, err := p.lookupCol(table, col)
	if err != nil {
		return err
	}
	st := cm.Onions[o]
	if st == nil {
		return fmt.Errorf("proxy: %s.%s has no %s onion", table, col, o)
	}
	if st.Cur == 0 {
		return nil // already fully wrapped
	}
	above := st.Stack[st.Cur-1]
	if above != onion.RND {
		return fmt.Errorf("proxy: cannot re-wrap non-RND layer %s", above)
	}
	if p.opts.Training {
		st.Cur--
		return nil
	}

	sel := &sqlparser.SelectStmt{
		Exprs: []sqlparser.SelectExpr{
			{Expr: &sqlparser.ColRef{Column: "rid"}},
			{Expr: &sqlparser.ColRef{Column: cm.onionCol(o)}},
			{Expr: &sqlparser.ColRef{Column: cm.ivCol()}},
		},
		From: []sqlparser.TableRef{{Table: cm.Table.Anon}},
	}
	res, err := p.db.Exec(sel)
	if err != nil {
		return fmt.Errorf("proxy: re-encryption read: %w", err)
	}
	rc := p.rndCipher(cm, o)
	for _, row := range res.Rows {
		val, iv := row[1], row[2]
		if val.IsNull() {
			continue
		}
		if iv.IsNull() {
			return fmt.Errorf("proxy: row %v of %s.%s has no IV to re-wrap with", row[0], table, col)
		}
		var wrapped sqldb.Value
		switch val.Kind {
		case sqldb.KindInt:
			w, err := rc.Uint64(iv.B, uint64(val.I))
			if err != nil {
				return err
			}
			wrapped = sqldb.Int(int64(w))
		case sqldb.KindBlob:
			w, err := rc.Bytes(iv.B, val.B)
			if err != nil {
				return err
			}
			wrapped = sqldb.Blob(w)
		default:
			return fmt.Errorf("proxy: unexpected server value kind %s", val.Kind)
		}
		upd := &sqlparser.UpdateStmt{
			Table:       cm.Table.Anon,
			Assignments: []sqlparser.Assignment{{Column: cm.onionCol(o), Value: valueToExpr(wrapped)}},
			Where: &sqlparser.BinaryExpr{Op: "=",
				L: &sqlparser.ColRef{Column: "rid"},
				R: &sqlparser.IntLit{V: row[0].I}},
		}
		if _, err := p.db.ExecAutonomous(upd); err != nil {
			return fmt.Errorf("proxy: re-encryption write: %w", err)
		}
	}
	st.Cur--
	// A raised Eq onion invalidates any DET index built while exposed:
	// RND ciphertexts are useless to it (§3.3), and it would go stale.
	if o == onion.Eq && cm.idxEq {
		cm.idxEq = false
	}
	if o == onion.JAdj && cm.idxJadj {
		cm.idxJadj = false
	}
	return nil
}
