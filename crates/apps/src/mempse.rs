//! The MEMORY pluggable storage engine analog (§5.2).
//!
//! MySQL's MEMORY PSE keeps all table data in process memory, organized as
//! a linked list of tables reachable through a global variable, with
//! functions to scan, retrieve and insert rows in an internal format. The
//! paper's crash procedure *reuses those functions without understanding
//! the row format* — so this module is deliberately structured the same
//! way: a table list headed at a global cell, and scan/insert/update/delete
//! entry points over opaque 64-byte rows, all operating purely on user
//! memory through the [`UserApi`].

use crate::memio::UserBump;
use ow_kernel::{program::PROG_STATE_VADDR, Errno, UserApi};

/// Fixed row size (rows are opaque byte arrays, as in §5.2).
pub const ROW_SIZE: u64 = 64;

/// Global cells.
pub const MAGIC_CELL: u64 = PROG_STATE_VADDR;
/// Head of the table list (a "global variable", §5.2).
pub const TABLE_HEAD: u64 = PROG_STATE_VADDR + 8;
/// Bump-allocator cursor.
pub const ALLOC_CELL: u64 = PROG_STATE_VADDR + 16;

/// Arena for tables and rows.
pub const ARENA_BASE: u64 = 0x10_0000;
/// Arena end.
pub const ARENA_END: u64 = 0x30_0000;

/// Table node magic.
const TBL_MAGIC: u64 = 0x454c_4254_4553_5000; // "PSETBLE"

const OFF_MAGIC: u64 = 0;
const OFF_NAME: u64 = 8;
const OFF_ROWSZ: u64 = 16;
const OFF_NROWS: u64 = 24;
const OFF_CAP: u64 = 32;
const OFF_NEXT: u64 = 40;
const OFF_ROWS: u64 = 48;

/// The arena allocator (cursor state lives in user memory).
pub fn arena() -> UserBump {
    UserBump {
        cursor_cell: ALLOC_CELL,
        base: ARENA_BASE,
        limit: ARENA_END,
    }
}

/// Packs a short table name into a u64.
pub fn pack_name(name: &str) -> u64 {
    let mut b = [0u8; 8];
    let n = name.len().min(8);
    b[..n].copy_from_slice(&name.as_bytes()[..n]);
    u64::from_le_bytes(b)
}

/// Unpacks a table name.
pub fn unpack_name(v: u64) -> String {
    let b = v.to_le_bytes();
    let end = b.iter().position(|&c| c == 0).unwrap_or(8);
    String::from_utf8_lossy(&b[..end]).into_owned()
}

/// Initializes the engine's global state (fresh start).
pub fn init(api: &mut dyn UserApi) -> Result<(), Errno> {
    api.mem_write_u64(MAGIC_CELL, TBL_MAGIC)?;
    api.mem_write_u64(TABLE_HEAD, 0)?;
    arena().init(api)
}

/// Creates a table with capacity `cap` rows, linking it into the list.
pub fn create_table(api: &mut dyn UserApi, name: &str, cap: u64) -> Result<u64, Errno> {
    let tbl = arena().alloc(api, OFF_ROWS + cap * ROW_SIZE)?;
    api.mem_write_u64(tbl + OFF_MAGIC, TBL_MAGIC)?;
    api.mem_write_u64(tbl + OFF_NAME, pack_name(name))?;
    api.mem_write_u64(tbl + OFF_ROWSZ, ROW_SIZE)?;
    api.mem_write_u64(tbl + OFF_NROWS, 0)?;
    api.mem_write_u64(tbl + OFF_CAP, cap)?;
    let head = api.mem_read_u64(TABLE_HEAD)?;
    api.mem_write_u64(tbl + OFF_NEXT, head)?;
    api.mem_write_u64(TABLE_HEAD, tbl)?;
    Ok(tbl)
}

/// Lists all tables (walking the global list).
pub fn tables(api: &mut dyn UserApi) -> Result<Vec<u64>, Errno> {
    let mut out = Vec::new();
    let mut addr = api.mem_read_u64(TABLE_HEAD)?;
    while addr != 0 && out.len() < 1024 {
        if api.mem_read_u64(addr + OFF_MAGIC)? != TBL_MAGIC {
            return Err(Errno::Inval);
        }
        out.push(addr);
        addr = api.mem_read_u64(addr + OFF_NEXT)?;
    }
    Ok(out)
}

/// Finds a table by name.
pub fn find_table(api: &mut dyn UserApi, name: &str) -> Result<Option<u64>, Errno> {
    let want = pack_name(name);
    for tbl in tables(api)? {
        if api.mem_read_u64(tbl + OFF_NAME)? == want {
            return Ok(Some(tbl));
        }
    }
    Ok(None)
}

/// The table's name.
pub fn table_name(api: &mut dyn UserApi, tbl: u64) -> Result<String, Errno> {
    Ok(unpack_name(api.mem_read_u64(tbl + OFF_NAME)?))
}

/// Number of rows.
pub fn nrows(api: &mut dyn UserApi, tbl: u64) -> Result<u64, Errno> {
    api.mem_read_u64(tbl + OFF_NROWS)
}

/// Reads row `idx` (opaque bytes).
pub fn row(api: &mut dyn UserApi, tbl: u64, idx: u64) -> Result<Vec<u8>, Errno> {
    let n = nrows(api, tbl)?;
    if idx >= n {
        return Err(Errno::Inval);
    }
    let mut buf = vec![0u8; ROW_SIZE as usize];
    api.mem_read(tbl + OFF_ROWS + idx * ROW_SIZE, &mut buf)?;
    Ok(buf)
}

/// Inserts a row, returning its index.
pub fn insert_row(api: &mut dyn UserApi, tbl: u64, data: &[u8]) -> Result<u64, Errno> {
    let n = nrows(api, tbl)?;
    let cap = api.mem_read_u64(tbl + OFF_CAP)?;
    if n >= cap {
        return Err(Errno::NoMem);
    }
    let mut rowbuf = [0u8; ROW_SIZE as usize];
    let len = data.len().min(ROW_SIZE as usize);
    rowbuf[..len].copy_from_slice(&data[..len]);
    api.mem_write(tbl + OFF_ROWS + n * ROW_SIZE, &rowbuf)?;
    api.mem_write_u64(tbl + OFF_NROWS, n + 1)?;
    Ok(n)
}

/// Overwrites row `idx`.
pub fn update_row(api: &mut dyn UserApi, tbl: u64, idx: u64, data: &[u8]) -> Result<(), Errno> {
    let n = nrows(api, tbl)?;
    if idx >= n {
        return Err(Errno::Inval);
    }
    let mut rowbuf = [0u8; ROW_SIZE as usize];
    let len = data.len().min(ROW_SIZE as usize);
    rowbuf[..len].copy_from_slice(&data[..len]);
    api.mem_write(tbl + OFF_ROWS + idx * ROW_SIZE, &rowbuf)?;
    Ok(())
}

/// Deletes row `idx` by moving the last row into the hole.
pub fn delete_row(api: &mut dyn UserApi, tbl: u64, idx: u64) -> Result<(), Errno> {
    let n = nrows(api, tbl)?;
    if idx >= n {
        return Err(Errno::Inval);
    }
    if idx != n - 1 {
        let mut last = vec![0u8; ROW_SIZE as usize];
        api.mem_read(tbl + OFF_ROWS + (n - 1) * ROW_SIZE, &mut last)?;
        api.mem_write(tbl + OFF_ROWS + idx * ROW_SIZE, &last)?;
    }
    api.mem_write_u64(tbl + OFF_NROWS, n - 1)?;
    Ok(())
}

/// Scans a whole table into host memory (used by the crash procedure —
/// which, as in §5.2, treats rows as opaque byte arrays).
pub fn scan(api: &mut dyn UserApi, tbl: u64) -> Result<Vec<Vec<u8>>, Errno> {
    let n = nrows(api, tbl)?;
    // The row count is user memory a kernel crash may have corrupted: size
    // the buffer by what the arena can hold, not by the stored count (a
    // wild count once asked the host for 25 TB); an impossible count then
    // fails at the first unreadable row.
    let mut out = Vec::with_capacity(n.min((ARENA_END - ARENA_BASE) / ROW_SIZE) as usize);
    for i in 0..n {
        out.push(row(api, tbl, i)?);
    }
    Ok(out)
}
