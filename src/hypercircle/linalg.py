"""Dense exact linear algebra over any of our coefficient fields: the
reduced row echelon form.

Matrices are lists of row lists.  Entries support +, -, *, / and boolean
zero tests; the field object supplies zero and one.
"""


def rref(rows, field):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= len(m):
            break
        sel = None
        for i in range(row, len(m)):
            if m[i][col]:
                sel = i
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = field.one / m[row][col]
        m[row] = [inv * v for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
    m = [r for r in m if any(r)]
    return m, pivots

