C     MAIN passes /B/ X to F, which also declares /B/ X: F's writes reach
C     MAIN's read of X(6) through the COMMON as well as through P, so X is
C     live at the exit of F/10 (full liveness: X is not private there).
      PROGRAM MAIN
      COMMON /B/ X(100)
      INTEGER I
      DO 5 I = 1, 100
        X(I) = I
5     CONTINUE
      CALL F(X)
      WRITE(*,*) X(6)
      END

      SUBROUTINE F(P)
      REAL P(100)
      COMMON /B/ X(100)
      INTEGER J, K
      DO 10 J = 1, 10
        DO 20 K = 1, 11-J
          X(K) = J
20      CONTINUE
        Y = X(1)
10    CONTINUE
      END
