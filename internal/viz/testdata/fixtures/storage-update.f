C     X is /B/ storage that only callee F declares: MAIN/10 is blocked by
C     it, and why counts the dynamic dependences on its cells.
      PROGRAM MAIN
      INTEGER I
      DO 10 I = 1, 10
        CALL F
10    CONTINUE
      END

      SUBROUTINE F
      COMMON /B/ X(100)
      INTEGER K
      DO 20 K = 2, 100
        X(K) = X(K) * 0.5 + K
20    CONTINUE
      END
